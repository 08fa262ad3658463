import math

import hypothesis.strategies as st
from hypothesis import given

from tlab.metrics import TokenStats, token_stats
from tlab.segmenter import detect_boundaries, split_at
from tlab.walk import TokenWalk


def test_weights_count_each_line_that_often():
    walk = TokenWalk(["abc", "c "], [[0.0, 1.0], [1.0]], [3, 2], [0.5])
    walk.advance()  # cuts ab|c and c|" "
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


@given(weighted_lines(), st.sets(st.sampled_from([0.0, 0.25, 0.3, 0.5, 1.0]), min_size=1, max_size=4))
def test_weight_equals_repeating_the_line(lines_weights_scores, peaks):
    # at every peak, from the highest down, the running table equals
    # tallying each line's pieces as many times as its weight
    lines, weights, gap_scores = lines_weights_scores
    peaks = sorted(peaks, reverse=True)
    walk = TokenWalk(lines, gap_scores, weights, peaks)
    for peak in peaks:
        walk.advance()
        pieces = [split_at(line, detect_boundaries(s, peak)) for line, s in zip(lines, gap_scores)]
        repeated = [tokens for tokens, weight in zip(pieces, weights) for _ in range(weight)]
        assert walk.stats == token_stats(repeated)


SCORES = st.one_of(st.sampled_from([-math.inf, -1.0, -0.0, 0.0, 0.5, 1.0, math.inf]), st.floats(-2, 2))


@given(st.data())
def test_each_advance_cuts_the_gaps_first_reached_at_its_peak(data):
    # 0.0 lies above every negative score, which is never cut; a score equal
    # to a peak is cut there, and only a score of inf reaches inf
    gap_scores = data.draw(st.lists(st.lists(SCORES, max_size=6), min_size=1, max_size=4))
    lines = ["x" * (len(s) + 1) for s in gap_scores]
    drawn = [score for s in gap_scores for score in s if score >= 0]
    peaks = {0.0, math.inf, *data.draw(st.sets(st.floats(0, 1), max_size=3))}
    if drawn:
        peaks.add(data.draw(st.sampled_from(drawn)))
    peaks = sorted(peaks, reverse=True)
    walk = TokenWalk(lines, gap_scores, [1] * len(lines), peaks)
    cut: set[tuple[int, int]] = set()
    for peak in peaks:
        reached = {(i, k) for i, s in enumerate(gap_scores) for k in detect_boundaries(s, peak)}
        newly = walk.advance()
        assert sorted(newly) == sorted(reached - cut)
        cut = reached
