"""Shared hypothesis strategies."""

from __future__ import annotations

import hypothesis.strategies as st

from tlab.corpus import TextCorpus
from tlab.ngram import build_model
from tlab.segmenter import MODES, SegmenterParams, order_freedom

import reference

SMALL_ALPHABET = "abcdef"


def model_of(lines, n_max=2, weights=None):
    return build_model(TextCorpus(tuple(lines)), n_max, line_weights=weights)


def view_of(m, n, min_count=0):
    """The view of both directions that ``segment_corpus`` cuts with at peak 0.5."""
    return order_freedom(m, SegmenterParams(n, 0.5, min_count, "union"))


def tops(view):
    """Each direction's largest out-degree: one less than its count of threshold rows."""
    return {direction: len(rows) - 1 for direction, rows in view.rows.items()}


def small_lines(alphabet: str = SMALL_ALPHABET, max_lines: int = 20, max_len: int = 12):
    return st.lists(
        st.text(alphabet=alphabet, min_size=1, max_size=max_len),
        min_size=1,
        max_size=max_lines,
    )


def weights_for(lines):
    return st.lists(
        st.integers(min_value=1, max_value=5), min_size=len(lines), max_size=len(lines)
    )


def corpora_with_weights(**kwargs):
    return small_lines(**kwargs).flatmap(
        lambda ls: st.tuples(st.just(ls), weights_for(ls))
    )


peak_thresholds = st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0])
prune_thresholds = st.integers(min_value=0, max_value=4)
orders = st.integers(min_value=1, max_value=4)
modes = st.sampled_from(["fwd", "bwd", "union"])


def draw_axes(data):
    n_values = tuple(data.draw(st.sets(st.integers(1, 3), min_size=1)))
    prune_values = tuple(data.draw(st.sets(st.integers(0, 2), min_size=1)))
    modes = tuple(data.draw(st.sets(st.sampled_from(MODES), min_size=1)))
    return n_values, prune_values, modes


def oracle_scores(oracle: reference.Segmenter, line: str) -> dict[str, list[float]]:
    """The oracle's float score of every gap of ``line`` in each mode: the
    forward rise, the backward drop and the larger of the two."""
    fwd, bwd = oracle.profiles(line)
    rises = [value - before for value, before in zip(fwd, [0.0, *fwd])]
    drops = [value - after for value, after in zip(bwd, [*bwd[1:], 0.0])]
    return {"fwd": rises, "bwd": drops, "union": list(map(max, rises, drops))}


def draw_peaks(data, models, lines, n_values):
    """Peak values with duplicates, with 0 (below every negative score), and
    with values equal to the oracle's gap scores of the lines."""
    oracles = [reference.Segmenter(model.windows.get(n, {}), n, 0) for model in models for n in n_values]
    gap_scores = sorted({
        score
        for oracle in oracles
        for line in lines
        for mode_scores in oracle_scores(oracle, line).values()
        for score in mode_scores
        if 0.0 <= score <= 1.0
    })
    pool = st.sampled_from([0.0, 0.25, 0.5, 1.0, *gap_scores])
    peaks = data.draw(st.lists(pool, min_size=1, max_size=5))
    return (*peaks, *data.draw(st.lists(st.sampled_from(peaks), max_size=2)))


WORDS = st.text(alphabet="abc", min_size=1, max_size=4)
SEPARATORS = st.sampled_from(["", " ", "\t", "  ", " \t ", "\t\t"])


@st.composite
def spaced_line(draw, separators=SEPARATORS):
    """A test line and its gold tokens: words joined by whitespace runs, tabs or
    nothing (unspaced), with whitespace at either end."""
    words = draw(st.lists(WORDS, min_size=1, max_size=5))
    gaps = draw(st.lists(separators, min_size=len(words) + 1, max_size=len(words) + 1))
    line = gaps[0] + "".join(word + sep for word, sep in zip(words, gaps[1:]))
    return line, tuple(words)
