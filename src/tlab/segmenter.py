"""Freedom views of an order's windows, the peak rule as integer levels, and thresholded segmentation."""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter, namedtuple
from itertools import chain, islice, repeat
from operator import itemgetter
from typing import Collection, Iterable, NamedTuple, Sequence

from .corpus import DataError, TextCorpus
from .ngram import TransitionModel, check_order, prune

# the direction modes: each freedom direction alone, and union, which cuts where either fires
MODES = ("bwd", "fwd", "union")

_DOMAINS = {
    "n": ("n must be >= 1", lambda value: value >= 1),
    "peak": ("peak threshold must be in [0, 1]", lambda value: 0.0 <= value <= 1.0),
    "prune": ("prune threshold must be >= 0", lambda value: value >= 0),
    "mode": (f"direction mode must be one of {MODES}", MODES.__contains__),
}

# the gram a window is an edge of: fwd, w[:-1] followed by w[-1]; bwd, w[1:] preceded by w[0]
_GRAM_OF_WINDOW = {"fwd": itemgetter(slice(None, -1)), "bwd": itemgetter(slice(1, None))}


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


class Freedom(NamedTuple):
    """One order's freedom view, for the directions a set of modes reads
    (``"fwd"``, ``"bwd"`` or both): ``degrees[direction]`` maps each gram of
    order ``n`` to its out-degree in that direction, and ``rows[direction]``
    holds the peak rule's threshold rows, one per neighbouring degree from 0
    to the direction's top (see :func:`freedom`)."""

    n: int
    degrees: dict[str, Counter[str]]
    rows: dict[str, list[list[int]]]


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


def profile(view: Freedom, line: str, direction: str, grams: Sequence[str] | None = None) -> tuple[int, ...]:
    """Freedom at every gap of ``line``: an out-degree of the view.

    Position i holds the degree of the n-gram ending at scalar i-1
    (``"fwd"``) or starting at scalar i (``"bwd"``), n being the view's
    order; gaps without a full n-gram of context hold 0, as do unseen grams.
    ``grams`` is the line's :func:`grams_of` at order n, when a caller
    shares one slicing between views and directions.
    """
    n, length = view.n, len(line)
    if length <= n:
        return (0,) * (length - 1)
    grams = grams_of(line, n) if grams is None else grams
    degrees = map(view.degrees[direction].get, grams[:-1] if direction == "fwd" else grams[1:], repeat(0))
    pad = repeat(0, n - 1)
    # built from a list, the tuple is allocated at its exact size and never resized
    return tuple([*pad, *degrees] if direction == "fwd" else [*degrees, *pad])


def freedom(n: int, windows: dict[str, int], ascending: Sequence[float], modes: Collection[str]) -> Freedom:
    """The freedom view of order ``n``'s window table ``windows``, pruned by the
    caller, for the directions that ``modes`` read (union reads both).

    The peak rule: a gap of degree a next to degree b is cut iff its score,
    ``a / top - b / top``, reaches the peak: its rise from the previous gap's
    degree b (``"fwd"``) or its drop to the next one's (``"bwd"``). Row b of a
    direction holds for each ``ascending`` peak the least degree a (``top + 1``
    if none) whose gap, next to degree b, is cut. The score never falls as a
    grows, so a gap reaches ``bisect_right(row, a)`` peaks; a threshold never
    falls as b grows, so each is carried down the rows. A top of 0 has one
    row: every score is 0.
    """
    degrees, rows = {}, {}
    for direction, gram_of in _GRAM_OF_WINDOW.items():
        if direction not in modes and "union" not in modes:
            continue
        degrees[direction] = counts = Counter(map(gram_of, windows))
        top = max(counts.values(), default=0)
        scaled = [degree / top for degree in range(top + 1)] if top else [0.0]
        least = [0] * len(ascending)
        rows[direction] = carried = []
        for b in scaled:
            for j, peak in enumerate(ascending):
                a = least[j]
                while a <= top and scaled[a] - b < peak:
                    a += 1
                least[j] = a
            carried.append(least.copy())
    return Freedom(n, degrees, rows)


def order_freedom(model: TransitionModel, params: SegmenterParams) -> Freedom:
    """The one-peak view that ``params`` cut with: ``model``'s order ``params.n``,
    which must be within its ``n_max``, pruned at ``params.prune``."""
    check_order(params.n, model.n_max)
    return freedom(params.n, prune(model.windows.get(params.n, {}), params.prune), (params.peak,), (params.mode,))


def levels(view: Freedom, line: str, mode: str, grams: Sequence[str] | None = None) -> list[int]:
    """How many of the view's peaks each gap of ``line`` reaches, read off its threshold rows.

    ``"fwd"`` reads each degree next to the previous gap's (0 before the
    line), ``"bwd"`` next to the next gap's (0 after it), and ``"union"``
    takes the larger level, from one slicing. ``grams`` is as for :func:`profile`.
    """
    if mode == "union":
        grams = grams_of(line, view.n) if grams is None else grams
        return list(map(max, levels(view, line, "fwd", grams), levels(view, line, "bwd", grams)))
    degrees = profile(view, line, mode, grams)
    neighbours = chain((0,), degrees) if mode == "fwd" else chain(islice(degrees, 1, None), (0,))
    return list(map(bisect_right, map(view.rows[mode].__getitem__, neighbours), degrees))


def detect_boundaries(gap_levels: Sequence[int], level: int) -> list[int]:
    """Cut positions (1-based gap indices) of the gaps whose :func:`levels` reach ``level``."""
    return [k for k, reached in enumerate(gap_levels, 1) if reached >= level]


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
    view = order_freedom(model, params)
    check_lines(corpus.lines)
    return [tuple(split_at(line, detect_boundaries(levels(view, line, params.mode), 1))) for line in corpus.lines]
