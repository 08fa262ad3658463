"""Descending peak walks: every peak value of a grid cell from one pass over its gaps.

Each gap carries its level (:func:`~tlab.segmenter.levels`), the number of
the cell's peaks it reaches, so cuts only grow as the peak falls. A cell
visits its distinct peaks from the highest down, and each gap is binned
once by its level, the peak at which the walk first cuts it; there it
splits one token of a running lexicon in two. The morph grid counts hits
against its reference cuts per word as the walk cuts. The word grid bins
each line's levels on its whitespace-stripped stream
(:func:`~tlab.metrics.project_cuts`) with :func:`~tlab.metrics.split_tallies`
for both of its F1s: gold F1 with gold as a side whose every boundary holds
the top level, and cross-split F1 between the two half models. Every
metric is still computed by the :mod:`tlab.metrics` functions, from the
same integers and tables as a per-peak pass, and every report by
:meth:`~tlab.metrics.MetricsReport.of`, so every float is the same.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence

from .metrics import (
    BoundaryCounts,
    MetricsReport,
    TokenStats,
    anti_entropy,
    compression_factor,
    count_tokens,
    f1_score,
    project_cuts,
    split_tallies,
)


class TokenWalk:
    """Token statistics of lines cut at each of a cell's ``bins`` peaks, from the highest down.

    ``line_levels`` hold each gap's level, from 0 to ``bins``; the r-th
    advance cuts the gaps of level ``bins - r + 1``, and a gap of level 0 is
    never cut. Line i's tokens count ``weights[i]`` times, and
    whitespace-only tokens are skipped, as in
    :func:`~tlab.metrics.token_stats`. ``stats`` holds the statistics at
    the last peak advanced to; its lexicon changes with the next advance.
    """

    def __init__(
        self,
        lines: Sequence[str],
        line_levels: Sequence[Sequence[int]],
        weights: Sequence[int],
        bins: int,
    ) -> None:
        self.lines = lines
        self.weights = weights
        self.cuts = [[0, len(line)] for line in lines]
        # bins[r - 1] holds the gaps of level r, so pop() takes the next peak's
        self.bins: list[list[tuple[int, int]]] = [[] for _ in range(bins)]
        for i, gap_levels in enumerate(line_levels):
            for k, level in enumerate(gap_levels, 1):
                if level:
                    self.bins[level - 1].append((i, k))
        self.stats = count_tokens(TokenStats({}, 0, 0), zip(lines, weights))

    def advance(self) -> list[tuple[int, int]]:
        """Cut every gap first reached at the next peak; return its (line, gap) pairs."""
        newly = self.bins.pop()
        lines, all_cuts, weights = self.lines, self.cuts, self.weights
        changes = []  # token, weight, token, weight, ...: no tuple per token
        for i, k in newly:
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
    cross-split F1 of the test lines at each of ``bins`` peaks, one per report.

    ``prefixes`` are the lines' :func:`~tlab.metrics.nonspace_prefix` tables,
    ``gold`` their :func:`~tlab.metrics.gold_cuts` levels, and ``levels_m``,
    ``levels_a`` and ``levels_b`` every line's gap levels under the
    full-train model and the two half models. Each model's levels go through
    :func:`~tlab.metrics.project_cuts` once, and
    :func:`~tlab.metrics.split_tallies` bins gold F1 (the full-train model
    against gold) and cross-split F1 (the half models) up front.
    """

    def __init__(
        self,
        lines: Sequence[str],
        prefixes: Sequence[Sequence[int]],
        gold: Sequence[Sequence[int]],
        levels_m: Sequence[Sequence[int]],
        levels_a: Sequence[Sequence[int]],
        levels_b: Sequence[Sequence[int]],
        bins: int,
    ) -> None:
        stripped_m, stripped_a, stripped_b = (map(project_cuts, prefixes, line_levels)
                                              for line_levels in (levels_m, levels_a, levels_b))
        self.gold = iter(split_tallies(zip(stripped_m, gold), bins))
        self.split = iter(split_tallies(zip(stripped_a, stripped_b), bins))
        self.tokens = TokenWalk(lines, levels_m, [1] * len(lines), bins)

    def report(self) -> MetricsReport:
        gold, split = next(self.gold), next(self.split)  # taken first: a report that raises leaves the walk in step
        self.tokens.advance()
        stats = self.tokens.stats
        return MetricsReport.of(f1_score(gold), anti_entropy(stats), compression_factor(stats), f1_score(split))


class MorphWalk:
    """Frequency-weighted morph F1, anti-entropy and compression factor of a
    lexicon's freedom-peak cuts at each of ``bins`` peaks, one per report.

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
        word_levels: Sequence[Sequence[int]],
        bins: int,
    ) -> None:
        self.freqs = freqs
        self.references = references
        self.tokens = TokenWalk(words, word_levels, freqs, bins)
        self.hits = [0] * len(words)
        self.cut_counts = [0] * len(words)
        self.terms = [freq * f1_score(BoundaryCounts(0, 0, len(ref))) for freq, ref in zip(freqs, references)]
        self.total_freq = sum(freqs)

    def report(self) -> MetricsReport:
        touched = set()
        for i, k in self.tokens.advance():
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
