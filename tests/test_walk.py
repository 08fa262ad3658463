import hypothesis.strategies as st
from hypothesis import given

from tlab.metrics import TokenStats, token_stats
from tlab.segmenter import detect_boundaries, split_at
from tlab.walk import TokenWalk


def test_weights_count_each_line_that_often():
    walk = TokenWalk(["abc", "c "], [[0, 1], [1]], [3, 2], 1)
    walk.advance()  # cuts ab|c and c|" "
    assert walk.stats == TokenStats({"ab": 3, "c": 5}, 8, 11)


@st.composite
def weighted_lines(draw, bins):
    """Lines of a, ab and whitespace with a weight and a level from 0 to ``bins`` per gap."""
    lines = draw(st.lists(st.lists(st.sampled_from(["a", "ab", " ", "\t"]), min_size=1, max_size=4).map("".join),
                          min_size=1, max_size=5))
    weights = draw(st.lists(st.integers(1, 4), min_size=len(lines), max_size=len(lines)))
    gap_levels = [draw(st.lists(st.integers(0, bins), min_size=len(line) - 1, max_size=len(line) - 1))
                  for line in lines]
    return lines, weights, gap_levels


@given(st.data())
def test_weight_equals_repeating_the_line(data):
    # at every peak, from the highest down, the running table equals
    # tallying each line's pieces as many times as its weight
    bins = data.draw(st.integers(1, 4))
    lines, weights, gap_levels = data.draw(weighted_lines(bins))
    walk = TokenWalk(lines, gap_levels, weights, bins)
    for level in range(bins, 0, -1):
        walk.advance()
        pieces = [split_at(line, detect_boundaries(g, level)) for line, g in zip(lines, gap_levels)]
        repeated = [tokens for tokens, weight in zip(pieces, weights) for _ in range(weight)]
        assert walk.stats == token_stats(repeated)


@given(st.data())
def test_each_advance_cuts_the_gaps_first_reached_at_its_peak(data):
    # level 0, where every negative score lies, is never cut; a gap of level
    # r is cut at the r-th lowest peak, the advance that reaches level r
    bins = data.draw(st.integers(1, 5))
    gap_levels = data.draw(st.lists(st.lists(st.integers(0, bins), max_size=6), min_size=1, max_size=4))
    lines = ["x" * (len(g) + 1) for g in gap_levels]
    walk = TokenWalk(lines, gap_levels, [1] * len(lines), bins)
    cut: set[tuple[int, int]] = set()
    for level in range(bins, 0, -1):
        reached = {(i, k) for i, g in enumerate(gap_levels) for k in detect_boundaries(g, level)}
        newly = walk.advance()
        assert sorted(newly) == sorted(reached - cut)
        cut = reached
    assert not walk.bins
