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
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Sequence

from .corpus import DataError, GoldSegmentation, TextCorpus, split_even_odd
from .ngram import build_model
from .segmenter import Segmentation, SegmenterParams, segment_corpus

# \s matches exactly the scalars for which str.isspace() holds
_HAS_SPACE = re.compile(r"\s").search


@dataclass(frozen=True)
class BoundaryCounts:
    true_positive: int = 0
    false_positive: int = 0
    false_negative: int = 0


@dataclass(frozen=True)
class TokenStats:
    """Token frequency table of a segmented corpus."""

    lexicon: dict[str, int]
    total_tokens: int
    total_chars: int


@dataclass(frozen=True)
class MetricsReport:
    """All per-trial metrics; csf1 and avg3 are None where not applicable."""

    f1: float
    anti_entropy: float
    compression_factor: float
    csf1: float | None
    avg3: float | None
    avg2: float
    product: float


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


def project_cuts(prefix: Sequence[int], cuts: Iterable[int]) -> frozenset[int]:
    """Map raw cut positions onto the whitespace-stripped stream.

    Cuts adjacent to removed whitespace land on the same stripped position
    and collapse; cuts at the stream edges are not internal and are dropped.
    """
    total = prefix[-1]
    return frozenset(p for p in (prefix[c] for c in cuts) if 0 < p < total)


def stripped_boundaries(tokens: Sequence[str]) -> tuple[str, frozenset[int]]:
    """Whitespace-stripped stream of a token sequence and its boundary set."""
    line = "".join(tokens)
    prefix = nonspace_prefix(line)
    cuts = accumulate(map(len, tokens[:-1]))
    if prefix[-1] == len(line):
        stream = line  # no whitespace to strip
    else:
        stream = "".join(ch for ch in line if not ch.isspace())
    return stream, project_cuts(prefix, cuts)


def _tally(pred, ref, units) -> BoundaryCounts:
    """Micro-aggregated tallies of the ``(stream, unit set)`` that ``units`` gives each line."""
    if len(pred) != len(ref):
        raise DataError(f"line count mismatch: {len(pred)} predicted vs {len(ref)} reference")
    tp = fp = fn = 0
    for i, (pt, rt) in enumerate(zip(pred, ref)):
        p_stream, p_units = units(pt)
        r_stream, r_units = units(rt)
        if p_stream != r_stream:
            raise DataError(f"character streams diverge at line {i + 1}: {p_stream!r} vs {r_stream!r}")
        tp += len(p_units & r_units)
        fp += len(p_units - r_units)
        fn += len(r_units - p_units)
    return BoundaryCounts(tp, fp, fn)


def boundary_counts(
    pred: Sequence[Sequence[str]], ref: Sequence[Sequence[str]]
) -> BoundaryCounts:
    """Micro-aggregated boundary tallies of two token-per-line sequences."""
    return _tally(pred, ref, stripped_boundaries)


def f1_score(counts: BoundaryCounts) -> float:
    """Harmonic mean of boundary precision and recall.

    Nothing predicted and nothing expected scores 1; one side empty scores 0.
    """
    tp, fp, fn = counts.true_positive, counts.false_positive, counts.false_negative
    if tp == 0:
        return 1.0 if fp == 0 and fn == 0 else 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


def boundary_f1(
    pred: Sequence[Segmentation], gold: GoldSegmentation
) -> tuple[BoundaryCounts, float]:
    counts = boundary_counts([s.tokens for s in pred], gold.lines)
    return counts, f1_score(counts)


def token_spans(tokens: Sequence[str]) -> frozenset[tuple[int, int]]:
    """(start, end) of each token on the stripped stream; empty spans dropped."""
    spans = []
    pos = 0
    for token in tokens:
        length = sum(1 for ch in token if not ch.isspace())
        if length:
            spans.append((pos, pos + length))
        pos += length
    return frozenset(spans)


def token_span_counts(
    pred: Sequence[Sequence[str]], ref: Sequence[Sequence[str]]
) -> BoundaryCounts:
    """Like boundary_counts but a hit needs the whole token span to match.

    Stricter than boundary comparison; kept for sensitivity analysis only.
    """
    return _tally(pred, ref, lambda tokens: (stripped_boundaries(tokens)[0], token_spans(tokens)))


def token_span_f1(
    pred: Sequence[Segmentation], gold: GoldSegmentation
) -> tuple[BoundaryCounts, float]:
    counts = token_span_counts([s.tokens for s in pred], gold.lines)
    return counts, f1_score(counts)


def token_stats(
    segs: Iterable[Segmentation | Sequence[str]], drop_whitespace_tokens: bool = False
) -> TokenStats:
    """Tally token occurrences; optionally skip whitespace-only tokens."""
    lexicon: dict[str, int] = {}
    total_tokens = 0
    total_chars = 0
    for seg in segs:
        tokens = seg.tokens if isinstance(seg, Segmentation) else seg
        for token in tokens:
            if drop_whitespace_tokens and token.isspace():
                continue
            lexicon[token] = lexicon.get(token, 0) + 1
            total_tokens += 1
            total_chars += len(token)
    return TokenStats(lexicon, total_tokens, total_chars)


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


def cross_split_f1(
    train: TextCorpus, test: TextCorpus, params: SegmenterParams, n_max: int
) -> float:
    """Train on interleaved halves, segment a shared test set with both models,
    and score one tokenization against the other.

    Either role order gives the same float: swapping them swaps fp and fn,
    hence precision and recall, which 2*p*r/(p+r) reads the same to the
    last bit, so averaging both orders would change nothing.
    """
    if not test.lines:
        raise DataError("cross-split F1 needs a non-empty test corpus")
    if params.n > n_max:
        raise DataError(f"order {params.n} exceeds model n_max {n_max}")
    # only order n is read, and its counts do not depend on the orders above it
    part_a, part_b = split_even_odd(train)
    model_a = build_model(part_a, params.n)
    model_b = build_model(part_b, params.n)
    seg_a = [s.tokens for s in segment_corpus(model_a, test, params)]
    seg_b = [s.tokens for s in segment_corpus(model_b, test, params)]
    return f1_score(boundary_counts(seg_a, seg_b))


def derived_metrics(
    anti_entropy_value: float, compression_value: float, csf1_value: float
) -> tuple[float, float, float]:
    """Mean of all three, mean of the first two, and product of the first two."""
    avg3 = (anti_entropy_value + compression_value + csf1_value) / 3
    avg2 = (anti_entropy_value + compression_value) / 2
    product = anti_entropy_value * compression_value
    return avg3, avg2, product
