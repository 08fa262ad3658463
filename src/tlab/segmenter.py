"""Transition-freedom profiles and peak-detection segmentation."""

from __future__ import annotations

from dataclasses import dataclass, replace
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
class FreedomProfile:
    """Normalized freedom values at candidate boundary positions 1..len-1."""

    values: tuple[float, ...]
    direction: str


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
        tokens = []
        prev = 0
        for cut in ordered:
            tokens.append(line[prev:cut])
            prev = cut
        tokens.append(line[prev:])
        return cls(tuple(tokens), ordered)

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


def profile(model: TransitionModel, line: str, n: int, direction: str) -> FreedomProfile:
    """Freedom at every gap of ``line``, scaled by the order's max freedom.

    Position i scores the n-gram ending at scalar i-1 (forward) or starting
    at scalar i (backward); gaps without a full n-gram of context score 0,
    as does everything when the order has no grams at all.
    """
    length = len(line)
    if length < 2:
        return FreedomProfile((), direction)
    maxf = max_freedom(model, n, direction)
    if maxf == 0:
        return FreedomProfile((0.0,) * (length - 1), direction)
    degree = model.degrees[n, direction].get
    values = []
    if direction == "forward":
        for i in range(1, length):
            values.append(degree(line[i - n : i], 0) / maxf if i >= n else 0.0)
    else:
        for i in range(1, length):
            values.append(degree(line[i : i + n], 0) / maxf if i + n <= length else 0.0)
    return FreedomProfile(tuple(values), direction)


def detect_boundaries(
    p_fwd: FreedomProfile, p_bwd: FreedomProfile, params: SegmenterParams
) -> tuple[int, ...]:
    """Positions whose rising derivative reaches the peak threshold.

    Forward reads left to right (virtual 0 before the line), backward right
    to left (virtual 0 after it); a position is a boundary when any selected
    direction fires. A threshold of 0 accepts every non-negative derivative.
    """
    fwd = p_fwd.values
    bwd = p_bwd.values
    if len(fwd) != len(bwd):
        raise DataError(f"profile length mismatch: {len(fwd)} vs {len(bwd)}")
    use_f = params.direction_mode in ("forward", "union")
    use_b = params.direction_mode in ("backward", "union")
    threshold = params.peak_threshold
    last = len(fwd) - 1
    cuts = []
    for k in range(len(fwd)):
        hit = use_f and fwd[k] - (fwd[k - 1] if k > 0 else 0.0) >= threshold
        if not hit and use_b:
            hit = bwd[k] - (bwd[k + 1] if k < last else 0.0) >= threshold
        if hit:
            cuts.append(k + 1)
    return tuple(cuts)


def segment(model: TransitionModel, line: str, params: SegmenterParams) -> Segmentation:
    """Prune, profile, and cut one line. Single-scalar lines stay whole."""
    if not line:
        raise DataError("cannot segment an empty line")
    if params.n > model.n_max:
        raise DataError(f"order {params.n} exceeds model n_max {model.n_max}")
    pruned = prune(model, params.prune_threshold)
    if len(line) == 1:
        return Segmentation.from_cuts(line, ())
    p_fwd = profile(pruned, line, params.n, "forward")
    p_bwd = profile(pruned, line, params.n, "backward")
    return Segmentation.from_cuts(line, detect_boundaries(p_fwd, p_bwd, params))


def segment_corpus(
    model: TransitionModel,
    corpus: TextCorpus,
    params: SegmenterParams,
) -> list[Segmentation]:
    """Segment every line, preserving order; line errors are aggregated."""
    if params.n > model.n_max:
        raise DataError(f"order {params.n} exceeds model n_max {model.n_max}")
    pruned = prune(model, params.prune_threshold)
    line_params = replace(params, prune_threshold=0)

    results = []
    failures = []
    for i, line in enumerate(corpus.lines):
        try:
            results.append(segment(pruned, line, line_params))
        except Exception as exc:  # noqa: BLE001 - aggregated below
            failures.append((i, exc))
    if failures:
        detail = "; ".join(f"line {i + 1}: {exc}" for i, exc in failures[:5])
        more = f" (+{len(failures) - 5} more)" if len(failures) > 5 else ""
        raise DataError(f"segmentation failed on {len(failures)} lines: {detail}{more}")
    return results
