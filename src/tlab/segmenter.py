"""Transition-freedom profiles, gap scores, and score-then-threshold segmentation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .corpus import DataError, TextCorpus
from .ngram import TransitionModel, max_freedom, prune

MODES = ("forward", "backward", "union")


@dataclass(frozen=True)
class SegmenterParams:
    """The hyper-parameters of one segmentation run."""

    n: int
    peak_threshold: float
    prune_threshold: int
    direction_mode: str = "union"

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DataError(f"n must be >= 1, got {self.n}")
        if not 0.0 <= self.peak_threshold <= 1.0:
            raise DataError(f"peak threshold must be in [0, 1], got {self.peak_threshold}")
        if self.prune_threshold < 0:
            raise DataError(f"prune threshold must be >= 0, got {self.prune_threshold}")
        if self.direction_mode not in MODES:
            raise DataError(f"direction mode must be one of {MODES}, got {self.direction_mode!r}")


@dataclass(frozen=True)
class Segmentation:
    """Tokens of one line plus the equivalent internal cut positions."""

    tokens: tuple[str, ...]
    boundaries: tuple[int, ...]

    @classmethod
    def from_cuts(cls, line: str, cuts: Iterable[int]) -> "Segmentation":
        ordered = tuple(sorted(set(cuts)))
        if ordered and (ordered[0] < 1 or ordered[-1] > len(line) - 1):
            raise DataError(f"cut positions {ordered} outside 1..{len(line) - 1}")
        return cls(tuple(split_at(line, ordered)), ordered)

    @classmethod
    def from_tokens(cls, tokens: Sequence[str]) -> "Segmentation":
        if not tokens or any(not t for t in tokens):
            raise DataError("tokens must be non-empty")
        cuts = []
        pos = 0
        for token in tokens[:-1]:
            pos += len(token)
            cuts.append(pos)
        return cls(tuple(tokens), tuple(cuts))

    @property
    def line(self) -> str:
        return "".join(self.tokens)


def split_at(line: str, cuts: Iterable[int]) -> list[str]:
    """The pieces of ``line`` between ascending cut positions."""
    pieces = []
    prev = 0
    for cut in cuts:
        pieces.append(line[prev:cut])
        prev = cut
    pieces.append(line[prev:])
    return pieces


def profile(model: TransitionModel, line: str, n: int, direction: str) -> tuple[float, ...]:
    """Freedom at every gap of ``line``, scaled by the order's max freedom.

    Position i scores the n-gram ending at scalar i-1 (forward) or starting
    at scalar i (backward); gaps without a full n-gram of context score 0,
    as does everything when the order has no grams at all.
    """
    length = len(line)
    if length < 2:
        return ()
    maxf = max_freedom(model, n, direction)
    if maxf == 0:
        return (0.0,) * (length - 1)
    degree = model.degrees[n, direction].get
    if direction == "forward":
        return tuple([degree(line[i - n : i], 0) / maxf if i >= n else 0.0 for i in range(1, length)])
    return tuple([degree(line[i : i + n], 0) / maxf if i + n <= length else 0.0 for i in range(1, length)])


def scores(model: TransitionModel, line: str, n: int, mode: str) -> list[float]:
    """The boundary score of every gap of ``line``; a gap is cut iff its score reaches the peak.

    Forward scores the rise from the previous gap (virtual 0 before the
    line), backward the drop to the next gap (virtual 0 after it), and union
    the larger of the two, so that it fires whenever either direction does.
    """
    if n > model.n_max:
        raise DataError(f"order {n} exceeds model n_max {model.n_max}")
    if mode != "backward":
        fwd = profile(model, line, n, "forward")
        rises = [value - before for value, before in zip(fwd, (0.0, *fwd))]
        if mode == "forward":
            return rises
    bwd = profile(model, line, n, "backward")
    drops = [value - after for value, after in zip(bwd, (*bwd[1:], 0.0))]
    if mode == "backward":
        return drops
    return [max(rise, drop) for rise, drop in zip(rises, drops)]


def detect_boundaries(gap_scores: Sequence[float], threshold: float) -> list[int]:
    """Cut positions (1-based gap indices) of the scores that reach ``threshold``."""
    return [k for k, score in enumerate(gap_scores, 1) if score >= threshold]


def _cut(model: TransitionModel, line: str, params: SegmenterParams) -> Segmentation:
    if not line:
        raise DataError("cannot segment an empty line")
    gap_scores = scores(model, line, params.n, params.direction_mode)
    return Segmentation.from_cuts(line, detect_boundaries(gap_scores, params.peak_threshold))


def segment(model: TransitionModel, line: str, params: SegmenterParams) -> Segmentation:
    """Prune, score and cut one line. Single-scalar lines stay whole."""
    return _cut(prune(model, params.prune_threshold), line, params)


def segment_corpus(
    model: TransitionModel,
    corpus: TextCorpus,
    params: SegmenterParams,
) -> list[Segmentation]:
    """Segment every line, preserving order; line errors are aggregated."""
    if params.n > model.n_max:
        raise DataError(f"order {params.n} exceeds model n_max {model.n_max}")
    pruned = prune(model, params.prune_threshold)

    results = []
    failures = []
    for i, line in enumerate(corpus.lines):
        try:
            results.append(_cut(pruned, line, params))
        except Exception as exc:  # noqa: BLE001 - aggregated below
            failures.append((i, exc))
    if failures:
        detail = "; ".join(f"line {i + 1}: {exc}" for i, exc in failures[:5])
        more = f" (+{len(failures) - 5} more)" if len(failures) > 5 else ""
        raise DataError(f"segmentation failed on {len(failures)} lines: {detail}{more}")
    return results
