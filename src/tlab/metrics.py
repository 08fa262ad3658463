"""Segmentation quality and culture-agnostic information metrics.

Boundary F1 is computed on the whitespace-stripped character stream so that
space-delimited and unspaced scripts are scored the same way. Anti-entropy
is 1 - H/log2(L) over the token frequency distribution; the compression
factor is (token count + summed lengths of distinct tokens) / character
count, i.e. compressed over uncompressed size, with the reciprocal reported
alongside wherever trials are recorded.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from itertools import accumulate, chain, repeat
from typing import Iterable, NamedTuple, Sequence

from .corpus import DataError, GoldSegmentation, TextCorpus, split_even_odd
from .ngram import build_model, order_freedom
from .segmenter import SegmenterParams, check_lines, grams_of, levels, thresholds

# \s matches exactly the scalars for which str.isspace() holds
_HAS_SPACE = re.compile(r"\s").search


class BoundaryCounts(NamedTuple):
    true_positive: int = 0
    false_positive: int = 0
    false_negative: int = 0


class TokenStats(NamedTuple):
    """Token frequency table of a segmented corpus."""

    lexicon: dict[str, int]
    total_tokens: int
    total_chars: int


class MetricsReport(NamedTuple):
    """One trial's metrics: F1, then the trial CSV's metric columns in order.
    csf1 and avg3 are None where there is no cross-split F1."""

    f1: float
    anti_entropy: float
    compression_factor: float
    reciprocal_cf: float
    csf1: float | None
    avg3: float | None
    avg2: float
    product: float

    @classmethod
    def of(cls, f1: float, s: float, c: float, csf1: float | None = None) -> "MetricsReport":
        """From F1, anti-entropy ``s``, compression factor ``c`` and cross-split
        F1: derives 1/c, the mean of s, c and csf1 (None without a csf1),
        the mean of s and c, and their product."""
        avg3 = None if csf1 is None else (s + c + csf1) / 3
        return cls(f1, s, c, 1.0 / c, csf1, avg3, (s + c) / 2, s * c)


def nonspace_prefix(line: str) -> tuple[int, ...]:
    """Prefix counts of non-whitespace scalars; entry i covers line[:i]."""
    if not _HAS_SPACE(line):
        return tuple(range(len(line) + 1))
    acc = [0]
    n = 0
    for ch in line:
        if not ch.isspace():
            n += 1
        acc.append(n)
    return tuple(acc)


def project_cuts(prefix: Sequence[int], gap_levels: Sequence[int]) -> Sequence[int]:
    """A line's gap levels on its whitespace-stripped stream: the highest at internal position p, at index p - 1.

    ``prefix`` is the line's :func:`nonspace_prefix` table, and ``gap_levels[k - 1]`` the level of the cut
    before ``line[k]``. Gaps beside removed whitespace land on one position and keep the highest level;
    gaps at the stream edges are dropped. At a peak of level L, the line cuts p iff the entry reaches L.
    """
    total = prefix[-1]
    if total == len(gap_levels) + 1:  # no whitespace: gap k is position k
        return gap_levels
    best = [0] * max(total - 1, 0)
    for p, level in zip(prefix[1:], gap_levels):
        if 0 < p < total and level > best[p - 1]:
            best[p - 1] = level
    return best


def stripped_boundaries(tokens: Sequence[str], level: int) -> tuple[str, Sequence[int]]:
    """Whitespace-stripped stream of a token sequence and its :func:`project_cuts`
    levels: ``level`` at each token boundary, 0 at every other internal position."""
    line = "".join(tokens)
    prefix = nonspace_prefix(line)
    gap_levels = [0] * max(len(line) - 1, 0)
    for cut in accumulate(map(len, tokens[:-1])):
        if 0 < cut < len(line):
            gap_levels[cut - 1] = level
    if prefix[-1] == len(line):
        stream = line  # no whitespace to strip
    else:
        stream = "".join(ch for ch in line if not ch.isspace())
    return stream, project_cuts(prefix, gap_levels)


def boundary_counts(
    pred: Sequence[Sequence[str]], ref: Sequence[Sequence[str]]
) -> BoundaryCounts:
    """Micro-aggregated boundary tallies of two token-per-line sequences."""
    if len(pred) != len(ref):
        raise DataError(f"line count mismatch: {len(pred)} predicted vs {len(ref)} reference")

    def pairs():  # one line's boundaries at a time, as split_tallies reads them
        for i, (pt, rt) in enumerate(zip(pred, ref)):
            p_stream, p_levels = stripped_boundaries(pt, 1)
            r_stream, r_levels = stripped_boundaries(rt, 1)
            if p_stream != r_stream:
                raise DataError(f"character streams diverge at line {i + 1}: {p_stream!r} vs {r_stream!r}")
            yield p_levels, r_levels

    (counts,) = split_tallies(pairs(), 1)
    return counts


def f1_score(counts: BoundaryCounts) -> float:
    """Harmonic mean of boundary precision and recall.

    Nothing predicted and nothing expected scores 1; one side empty scores 0.
    """
    tp, fp, fn = counts
    if tp == 0:
        return 1.0 if fp == 0 and fn == 0 else 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


def count_tokens(stats: TokenStats, weighted_tokens: Iterable[tuple]) -> TokenStats:
    """``stats`` with each (token, weight) pair added; weights may be negative.

    The lexicon is updated in place and shared with the result, and a token
    whose count falls to 0 leaves it. Whitespace-only tokens are skipped.
    """
    lexicon = stats.lexicon
    tokens = chars = 0
    for token, weight in weighted_tokens:
        if token.isspace():
            continue
        count = lexicon.get(token, 0) + weight
        if count:
            lexicon[token] = count
        else:
            del lexicon[token]
        tokens += weight
        chars += weight * len(token)
    return TokenStats(lexicon, stats.total_tokens + tokens, stats.total_chars + chars)


def token_stats(token_lines: Iterable[Sequence[str]]) -> TokenStats:
    """Tally token occurrences, skipping whitespace-only tokens."""
    return count_tokens(TokenStats({}, 0, 0), zip(chain.from_iterable(token_lines), repeat(1)))


def anti_entropy(stats: TokenStats) -> float:
    """1 - H/log2(L): 0 for a uniform distribution, 1 as it concentrates."""
    total = stats.total_tokens
    if total < 1:
        raise DataError("anti-entropy needs at least one token")
    size = len(stats.lexicon)
    if size <= 1:
        return 1.0
    entropy = -math.fsum((c / total) * math.log2(c / total) for c in stats.lexicon.values())
    value = 1.0 - entropy / math.log2(size)
    return min(1.0, max(0.0, value))


def compression_factor(stats: TokenStats) -> float:
    """(token count + summed lengths of distinct tokens) / character count."""
    if stats.total_chars < 1:
        raise DataError("compression factor needs at least one character")
    dictionary = sum(len(token) for token in stats.lexicon)
    return (stats.total_tokens + dictionary) / stats.total_chars


def gold_cuts(lines: Sequence[str], gold: GoldSegmentation, bins: int) -> list[Sequence[int]]:
    """Each test line's :func:`stripped_boundaries` at level ``bins``: gold cuts its boundaries at each of the
    word grid's ``bins`` peaks, so :func:`split_tallies` bins gold F1 as it bins cross-split F1."""
    if len(gold.lines) != len(lines):
        raise DataError(f"gold has {len(gold.lines)} lines but test has {len(lines)}")
    cuts = []
    for i, (line, tokens) in enumerate(zip(lines, gold.lines)):
        stream, gold_levels = stripped_boundaries(tokens, bins)
        if stream != "".join(ch for ch in line if not ch.isspace()):
            raise DataError(f"gold/test character streams diverge at line {i + 1}")
        cuts.append(gold_levels)
    return cuts


def split_tallies(level_pairs: Iterable[tuple[Sequence[int], Sequence[int]]], bins: int) -> list[BoundaryCounts]:
    """Micro-aggregated boundary tallies of two sides' cuts at each of ``bins`` peaks, from the highest down.

    ``level_pairs`` hold each line's :func:`project_cuts` under the two sides:
    two token sequences at level 1 for :func:`boundary_counts`, two models
    for cross-split F1, or a model and gold, whose every boundary holds level
    ``bins``, for gold F1. A side cuts a stripped position at a peak when the
    position's level reaches the peak's, and both do when the lower of their
    two levels does. A level of 0, which counts at no peak, is dropped as its
    line is read. Either role order gives the same F1: swapping them swaps fp
    and fn, hence precision and recall, which 2*p*r/(p+r) reads the same to
    the last bit.
    """
    both, a, b = [], [], []
    for levels_a, levels_b in level_pairs:
        a += [x for x in levels_a if x]
        b += [y for y in levels_b if y]
        both += [x if x < y else y for x, y in zip(levels_a, levels_b) if x and y]
    # a peak counts the levels that reach it or a higher one: each bin from the highest peak down, summed
    tp, cut_a, cut_b = [list(accumulate(counts[r] for r in range(bins, 0, -1)))
                        for counts in map(Counter, (both, a, b))]
    return [BoundaryCounts(t, x - t, y - t) for t, x, y in zip(tp, cut_a, cut_b)]


def cross_split_f1(train: TextCorpus, test: TextCorpus, params: SegmenterParams) -> float:
    """Train on interleaved halves, cut a shared test set with both models,
    and score one set of cuts against the other (see :func:`split_tallies`)."""
    if not test.lines:
        raise DataError("cross-split F1 needs a non-empty test corpus")
    check_lines(test.lines)
    # only order n is read, and its counts do not depend on the orders above it
    n, mode = params.n, params.mode
    views = [order_freedom(build_model(part, n), n, params.prune) for part in split_even_odd(train)]
    rules = [(view, thresholds(view, (params.peak,), (mode,))) for view in views]
    sliced = ((line, grams_of(line, n), nonspace_prefix(line)) for line in test.lines)  # each once, for both views
    pairs = ([project_cuts(prefix, levels(view, line, mode, table, grams)) for view, table in rules]
             for line, grams, prefix in sliced)
    (counts,) = split_tallies(pairs, 1)
    return f1_score(counts)
