"""Descending peak walks: every peak value of a grid cell from one pass over its gaps.

A gap is cut iff its score reaches the peak threshold, so cuts only grow as
the threshold falls. A cell therefore visits its peak values from the
highest to the lowest: each gap is cut once, when the walk first reaches its
score, and splits one token of a running lexicon in two. Hits against a
fixed reference are counted as the walk cuts (per word in the morph grid,
per stripped position for the word grid's gold F1); cross-split F1, whose
two sides both move with the threshold, counts over scores sorted once per
cell (:class:`~tlab.metrics.SplitTally`). Every metric is still computed by
the :mod:`tlab.metrics` functions, from the same integers and tables as a
per-peak pass, and every report by :meth:`~tlab.metrics.MetricsReport.of`,
so every float is the same.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Sequence

from .metrics import (
    BoundaryCounts,
    MetricsReport,
    SplitTally,
    TokenStats,
    anti_entropy,
    compression_factor,
    count_tokens,
    f1_score,
)


class TokenWalk:
    """Token statistics of lines cut at every gap whose score reaches a falling threshold.

    Line i's tokens count ``weights[i]`` times, and whitespace-only tokens are
    skipped, as in :func:`~tlab.metrics.token_stats`. Gaps scoring below
    ``lowest`` are never cut. ``stats`` holds the statistics at the current
    threshold; its lexicon changes with the next advance.
    """

    def __init__(
        self,
        lines: Sequence[str],
        line_scores: Sequence[Sequence[float]],
        weights: Sequence[int],
        lowest: float,
    ) -> None:
        self.lines = lines
        self.weights = weights
        self.cuts = [[0, len(line)] for line in lines]
        self.gaps = [
            (score, i, k)
            for i, gap_scores in enumerate(line_scores)
            for k, score in enumerate(gap_scores, 1)
            if score >= lowest
        ]
        self.gaps.sort(reverse=True)
        self.reached = 0
        self.threshold = math.inf
        self.stats = count_tokens(TokenStats({}, 0, 0), zip(lines, weights))

    def advance(self, threshold: float) -> list[tuple[float, int, int]]:
        """Cut every gap scoring at least ``threshold``; return the newly cut (score, line, gap) triples."""
        if threshold > self.threshold:
            raise ValueError(f"threshold {threshold} is above the last one, {self.threshold}")
        self.threshold = threshold
        gaps, start = self.gaps, self.reached
        end = start
        while end < len(gaps) and gaps[end][0] >= threshold:
            end += 1
        self.reached = end
        newly = gaps[start:end]
        lines, all_cuts, weights = self.lines, self.cuts, self.weights
        changes = []  # token, weight, token, weight, ...: no tuple per token
        for _, i, k in newly:
            line, cuts, weight = lines[i], all_cuts[i], weights[i]
            j = bisect_left(cuts, k)
            left, right = cuts[j - 1], cuts[j]
            cuts.insert(j, k)
            changes += (line[left:right], -weight, line[left:k], weight, line[k:right], weight)
        pairs = iter(changes)
        self.stats = count_tokens(self.stats, zip(pairs, pairs))
        return newly


class WordWalk:
    """One word-grid cell: boundary F1 against gold, token statistics and
    cross-split F1 of the test lines at falling peak thresholds.

    ``prefixes`` are the lines' :func:`~tlab.metrics.nonspace_prefix` tables
    and ``gold`` their :func:`~tlab.metrics.gold_cuts`; ``scores_m``,
    ``scores_a`` and ``scores_b`` are every line's gap scores under the
    full-train model and the two half models. A cut gap is predicted at its
    stripped position, once per internal one (:func:`~tlab.metrics.project_cuts`).
    """

    def __init__(
        self,
        lines: Sequence[str],
        prefixes: Sequence[Sequence[int]],
        gold: Sequence[frozenset[int]],
        scores_m: Sequence[Sequence[float]],
        scores_a: Sequence[Sequence[float]],
        scores_b: Sequence[Sequence[float]],
        lowest: float,
    ) -> None:
        self.prefixes = prefixes
        self.gold = gold
        self.cut: list[set[int]] = [set() for _ in lines]  # stripped positions cut so far
        self.hits = self.predicted = 0
        self.gold_total = sum(map(len, gold))
        self.split = SplitTally.of(prefixes, zip(scores_a, scores_b), lowest)
        self.tokens = TokenWalk(lines, scores_m, [1] * len(lines), lowest)

    def report(self, threshold: float) -> MetricsReport:
        prefixes, gold, cut = self.prefixes, self.gold, self.cut
        for _, i, k in self.tokens.advance(threshold):
            prefix = prefixes[i]
            p = prefix[k]
            if 0 < p < prefix[-1] and p not in cut[i]:
                cut[i].add(p)
                self.predicted += 1
                self.hits += p in gold[i]
        hits = self.hits
        stats = self.tokens.stats
        return MetricsReport.of(
            f1_score(BoundaryCounts(hits, self.predicted - hits, self.gold_total - hits)),
            anti_entropy(stats), compression_factor(stats), f1_score(self.split.at(threshold)),
        )


class MorphWalk:
    """Frequency-weighted morph F1, anti-entropy and compression factor of a
    lexicon's freedom-peak cuts at falling peak thresholds.

    Per-word boundary F1 against the reference cuts (words hold no
    whitespace, so cut sets compare directly) is averaged with word-frequency
    weights; anti-entropy and compression factor count every word's pieces
    with multiplicity equal to its frequency.
    """

    def __init__(
        self,
        words: Sequence[str],
        freqs: Sequence[int],
        references: Sequence[frozenset[int]],
        word_scores: Sequence[Sequence[float]],
        lowest: float,
    ) -> None:
        self.freqs = freqs
        self.references = references
        self.tokens = TokenWalk(words, word_scores, freqs, lowest)
        self.hits = [0] * len(words)
        self.cut_counts = [0] * len(words)
        self.terms = [freq * f1_score(BoundaryCounts(0, 0, len(ref))) for freq, ref in zip(freqs, references)]
        self.total_freq = sum(freqs)

    def report(self, threshold: float) -> MetricsReport:
        touched = set()
        for _, i, k in self.tokens.advance(threshold):
            self.cut_counts[i] += 1
            self.hits[i] += k in self.references[i]
            touched.add(i)
        for i in touched:
            hits, ref = self.hits[i], self.references[i]
            counts = BoundaryCounts(hits, self.cut_counts[i] - hits, len(ref) - hits)
            self.terms[i] = self.freqs[i] * f1_score(counts)
        f1_weighted = 0.0
        for term in self.terms:  # a running sum in lexicon order, not sum(), which may compensate
            f1_weighted += term
        stats = self.tokens.stats
        return MetricsReport.of(f1_weighted / self.total_freq, anti_entropy(stats), compression_factor(stats))
