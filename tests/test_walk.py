import hypothesis.strategies as st
import pytest
from hypothesis import given

from tlab.metrics import TokenStats, token_stats
from tlab.segmenter import detect_boundaries, split_at
from tlab.walk import TokenWalk


def test_weights_count_each_line_that_often():
    walk = TokenWalk(["abc", "c "], [[0.0, 1.0], [1.0]], [3, 2], 0.0)
    walk.advance(0.5)  # cuts ab|c and c|" "
    assert walk.stats == TokenStats({"ab": 3, "c": 5}, 8, 11)


@st.composite
def weighted_lines(draw):
    """Lines of a, ab and whitespace with a weight and a score per gap."""
    lines = draw(st.lists(st.lists(st.sampled_from(["a", "ab", " ", "\t"]), min_size=1, max_size=4).map("".join),
                          min_size=1, max_size=5))
    weights = draw(st.lists(st.integers(1, 4), min_size=len(lines), max_size=len(lines)))
    gap_scores = [draw(st.lists(st.sampled_from([-0.5, 0.0, 0.25, 0.5, 1.0]), min_size=len(line) - 1,
                                max_size=len(line) - 1)) for line in lines]
    return lines, weights, gap_scores


@given(weighted_lines(), st.lists(st.sampled_from([0.0, 0.25, 0.3, 0.5, 1.0]), min_size=1, max_size=4))
def test_weight_equals_repeating_the_line(lines_weights_scores, thresholds):
    # at every threshold, from the highest down, the running table equals
    # tallying each line's pieces as many times as its weight
    lines, weights, gap_scores = lines_weights_scores
    thresholds = sorted(thresholds, reverse=True)
    walk = TokenWalk(lines, gap_scores, weights, thresholds[-1])
    for threshold in thresholds:
        walk.advance(threshold)
        pieces = [split_at(line, detect_boundaries(s, threshold)) for line, s in zip(lines, gap_scores)]
        repeated = [tokens for tokens, weight in zip(pieces, weights) for _ in range(weight)]
        assert walk.stats == token_stats(repeated)


def test_thresholds_must_not_rise():
    walk = TokenWalk(["ab"], [[0.5]], [1], 0.0)
    walk.advance(0.5)
    with pytest.raises(ValueError):
        walk.advance(0.75)
