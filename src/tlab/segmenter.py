"""Transition-freedom profiles, gap scores, and score-then-threshold segmentation."""

from __future__ import annotations

from collections import namedtuple
from itertools import chain, islice, repeat
from operator import sub, truediv
from typing import Iterable, Sequence

from .corpus import DataError, TextCorpus
from .ngram import Freedom, TransitionModel, order_freedom

# the direction modes: each freedom direction alone, and union, which cuts where either fires
MODES = ("bwd", "fwd", "union")

_DOMAINS = {
    "n": ("n must be >= 1", lambda value: value >= 1),
    "peak": ("peak threshold must be in [0, 1]", lambda value: 0.0 <= value <= 1.0),
    "prune": ("prune threshold must be >= 0", lambda value: value >= 0),
    "mode": (f"direction mode must be one of {MODES}", MODES.__contains__),
}


def check_domain(axis: str, value) -> None:
    """Reject a value outside its axis: n >= 1, peak in [0, 1], prune >= 0, a mode of :data:`MODES`."""
    rule, holds = _DOMAINS[axis]
    if not holds(value):
        raise DataError(f"{rule}, got {value!r}")


class SegmenterParams(namedtuple("SegmenterParams", tuple(_DOMAINS), defaults=("union",))):
    """The hyper-parameters of one segmentation run, named as the command line
    names them and each checked by :func:`check_domain`: the order ``n``
    (int), the ``peak`` threshold (float), the ``prune`` threshold (int) and
    the direction ``mode`` (one of :data:`MODES`)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> SegmenterParams:
        params = super().__new__(cls, *args, **kwargs)
        for axis, value in zip(_DOMAINS, params):
            check_domain(axis, value)
        return params


def split_at(line: str, cuts: Iterable[int]) -> list[str]:
    """The pieces of ``line`` between ascending cut positions."""
    pieces = []
    prev = 0
    for cut in cuts:
        pieces.append(line[prev:cut])
        prev = cut
    pieces.append(line[prev:])
    return pieces


def grams_of(line: str, n: int) -> list[str]:
    """Every n-gram of ``line``, in order: one slicing that serves every model and both directions."""
    return [line[i : i + n] for i in range(len(line) - n + 1)]


def profile(view: Freedom, line: str, direction: str, grams: Sequence[str] | None = None) -> tuple[float, ...]:
    """Freedom at every gap of ``line``, scaled by the order's max freedom.

    Position i scores the n-gram ending at scalar i-1 (``"fwd"``) or starting
    at scalar i (``"bwd"``), n being the view's order; gaps without a full
    n-gram of context score 0, as does everything when the order has no
    grams at all. ``grams`` is the line's :func:`grams_of` at order n, when
    a caller shares one slicing between views and directions.
    """
    n, maxf = view.n, view.top[direction]
    length = len(line)
    if length < 2:
        return ()
    if maxf == 0 or length <= n:
        return (0.0,) * (length - 1)
    grams = grams_of(line, n) if grams is None else grams
    degrees = map(view.degrees[direction].get, grams[:-1] if direction == "fwd" else grams[1:], repeat(0))
    values, pad = map(truediv, degrees, repeat(maxf)), repeat(0.0, n - 1)
    # built from a list, the tuple is allocated at its exact size and never resized
    return tuple([*pad, *values] if direction == "fwd" else [*values, *pad])


def scores(view: Freedom, line: str, mode: str, grams: Sequence[str] | None = None) -> list[float]:
    """The boundary score of every gap of ``line``; a gap is cut iff its score reaches the peak.

    ``"fwd"`` scores the rise from the previous gap (virtual 0 before the
    line), ``"bwd"`` the drop to the next gap (virtual 0 after it), and
    ``"union"`` their :func:`union`, from one slicing of the line.
    ``grams`` is as for :func:`profile`.
    """
    if mode == "union":
        grams = grams_of(line, view.n) if grams is None else grams
        return union(scores(view, line, "fwd", grams), scores(view, line, "bwd", grams))
    values = profile(view, line, mode, grams)
    if mode == "fwd":
        return list(map(sub, values, chain((0.0,), values)))
    return list(map(sub, values, chain(islice(values, 1, None), (0.0,))))


def union(rises: Sequence[float], drops: Sequence[float]) -> list[float]:
    """Union scores: the larger of each gap's rise and drop, so that union fires whenever either direction does."""
    return list(map(max, rises, drops))


def detect_boundaries(gap_scores: Sequence[float], threshold: float) -> list[int]:
    """Cut positions (1-based gap indices) of the scores that reach ``threshold``."""
    return [k for k, score in enumerate(gap_scores, 1) if score >= threshold]


def check_lines(lines: Sequence[str]) -> None:
    """Reject a corpus holding an empty line, which has no scalar to segment, naming the first one."""
    if not all(lines):
        raise DataError(f"cannot segment an empty line (line {lines.index('') + 1})")


def segment(model: TransitionModel, line: str, params: SegmenterParams) -> tuple[str, ...]:
    """Score and cut one line, as :func:`segment_corpus` cuts a corpus of it. Single-scalar lines stay whole."""
    return segment_corpus(model, TextCorpus((line,)), params)[0]


def segment_corpus(
    model: TransitionModel,
    corpus: TextCorpus,
    params: SegmenterParams,
) -> list[tuple[str, ...]]:
    """Each line's tokens, in order, every line cut with one freedom view of the order ``params.n``."""
    view = order_freedom(model, params.n, params.prune)
    check_lines(corpus.lines)
    mode, peak = params.mode, params.peak
    return [tuple(split_at(line, detect_boundaries(scores(view, line, mode), peak))) for line in corpus.lines]
