import math
from bisect import bisect_right
from collections import Counter
from itertools import accumulate, chain

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from tlab import ngram
from tlab.corpus import DataError, TextCorpus
from tlab.ngram import Freedom, build_model, freedom, order_freedom
from tlab.segmenter import (
    MODES,
    SegmenterParams,
    detect_boundaries,
    grams_of,
    levels,
    profile,
    segment,
    segment_corpus,
    thresholds,
)

import reference
from cost import line_events
from strategies import (
    corpora_with_weights,
    modes,
    oracle_scores,
    orders,
    peak_thresholds,
    prune_thresholds,
)


def view_of(m, n, min_count=0):
    return order_freedom(m, n, min_count)


def model_of(lines, n_max=2, weights=None):
    return build_model(TextCorpus(tuple(lines)), n_max, line_weights=weights)


def params(n=1, peak=0.5, prune=0, mode="union"):
    return SegmenterParams(n, peak, prune, mode)


class TestParams:
    def test_validation(self):
        with pytest.raises(DataError):
            params(n=0)
        with pytest.raises(DataError):
            params(peak=1.5)
        with pytest.raises(DataError):
            params(prune=-1)
        with pytest.raises(DataError):
            SegmenterParams(1, 0.5, 0, "sideways")


class TestProfile:
    def test_shared_prefix_scores_full(self):
        # two lines "ab"/"ac": context "a" continues 2 ways, the maximum
        m = model_of(["ab", "ac"], 1)
        assert profile(view_of(m, 1), "ab", "fwd") == (2,)
        assert view_of(m, 1).top["fwd"] == 2

    def test_absent_gram_scores_zero(self):
        m = model_of(["ab", "ac"], 1)
        assert profile(view_of(m, 1), "zb", "fwd") == (0,)

    def test_length_two_line(self):
        m = model_of(["ab"], 1)
        assert len(profile(view_of(m, 1), "xy", "fwd")) == 1

    def test_short_line_empty_profile(self):
        m = model_of(["ab"], 1)
        assert profile(view_of(m, 1), "a", "fwd") == ()

    def test_incomplete_context_scores_zero(self):
        m = model_of(["abcd"], 3)
        p = profile(view_of(m, 3), "abcd", "fwd")
        assert p[0] == 0 and p[1] == 0

    @given(corpora_with_weights(max_lines=8), orders)
    def test_matches_bruteforce(self, lines_weights, n):
        # a profile holds degrees: the oracle's profile times the view's top
        lines, weights = lines_weights
        view = view_of(model_of(lines, 4, weights=weights), n)
        oracle = reference.Segmenter(reference.window_counts(lines, n + 1, weights), n, 0)
        for direction in ("fwd", "bwd"):
            for line in lines[:3]:
                got = profile(view, line, direction)
                expected = dict(zip(("fwd", "bwd"), oracle.profiles(line)))[direction]
                assert list(got) == [round(value * view.top[direction]) for value in expected]


# spaces, tabs and a scalar outside the Basic Multilingual Plane among letters
MIXED_TEXT = st.text(alphabet="ab \t\U0001d538", min_size=1, max_size=6)


class TestSharedSlices:
    @given(st.lists(st.tuples(MIXED_TEXT, st.integers(1, 3)), min_size=1, max_size=6),
           st.lists(MIXED_TEXT, min_size=1, max_size=4), orders, prune_thresholds)
    @example([("ab", 1)], ["a"], 1, 0)  # a line of one scalar
    @example([("ab", 1), ("b\U0001d538", 2)], ["ab", "a\t\U0001d538"], 2, 0)  # order 2 has no windows
    @example([("a b", 2), ("a\tb", 1), ("ab", 3)], ["a b\U0001d538", "b"], 1, 2)  # a pruned model
    def test_caller_slices_score_as_the_line_does(self, train_weights, test_lines, n, prune_t):
        # profiles and levels from a caller's gram slices are those that
        # slice the line themselves, and the brute-force ones
        train, weights = map(list, zip(*train_weights))
        view = view_of(model_of(train, 4, weights=weights), n, prune_t)
        if all(len(line) <= n for line in train):
            assert view.top == {"fwd": 0, "bwd": 0}
        oracle = reference.Segmenter(reference.window_counts(train, n + 1, weights), n, prune_t)
        ascending = (0.0, 0.5, 1.0)
        table = thresholds(view, ascending, MODES)
        for line in test_lines:
            grams = grams_of(line, n)
            for direction, expected in zip(("fwd", "bwd"), oracle.profiles(line)):
                degrees = [round(value * view.top[direction]) for value in expected]
                assert list(profile(view, line, direction, grams)) == list(profile(view, line, direction)) == degrees
            for mode, gap_scores in oracle_scores(oracle, line).items():
                expected = [bisect_right(ascending, score) for score in gap_scores]
                assert levels(view, line, mode, table, grams) == levels(view, line, mode, table) == expected


class TestDetectBoundaries:
    def test_all_zero_profiles(self):
        m = model_of(["ab"], 1)
        view = view_of(m, 1)
        assert levels(view, "zzzz", "union", thresholds(view, (0.5,), ("union",))) == [0, 0, 0]
        assert detect_boundaries([0, 0, 0], 1) == []

    def test_zero_threshold_marks_nonnegative(self):
        # "abz" rises by 1 at its first gap and by -1 at its second: a peak
        # of 0 is reached by every score but a negative one
        view = view_of(model_of(["ab", "ac"], 1), 1)
        assert levels(view, "abz", "fwd", thresholds(view, (0.0,), ("fwd",))) == [1, 0]
        assert detect_boundaries([1, 0, 1], 1) == [1, 3]
        assert detect_boundaries([0, 2, 1], 2) == [2]

    def test_rising_edge(self):
        view = view_of(model_of(["ab", "ac"], 1), 1)
        assert detect_boundaries(levels(view, "ab", "fwd", thresholds(view, (0.5,), ("fwd",))), 1) == [1]

    def test_scores_are_rises_drops_and_their_max(self):
        # "abc"/"abd": "a" has 1 successor of the maximum 2 ("b" -> c|d);
        # every gram has exactly 1 predecessor. So the forward rises are 0.5
        # and 0.5, the backward drops 0.0 and 1.0
        view = view_of(model_of(["abc", "abd"], 1), 1)
        assert profile(view, "abc", "fwd") == (1, 2)
        assert profile(view, "abc", "bwd") == (1, 1)
        table = thresholds(view, (0.25, 0.5, 1.0), MODES)
        assert levels(view, "abc", "fwd", table) == [2, 2]
        assert levels(view, "abc", "bwd", table) == [0, 3]
        assert levels(view, "abc", "union", table) == [2, 3]

    @given(corpora_with_weights(max_lines=8), orders, peak_thresholds)
    def test_union_contains_single_modes(self, lines_weights, n, peak):
        lines, weights = lines_weights
        view = view_of(model_of(lines, 4, weights=weights), n)
        table = thresholds(view, (peak,), MODES)
        for line in lines[:3]:
            union = set(detect_boundaries(levels(view, line, "union", table), 1))
            fwd_only = set(detect_boundaries(levels(view, line, "fwd", table), 1))
            bwd_only = set(detect_boundaries(levels(view, line, "bwd", table), 1))
            assert fwd_only <= union and bwd_only <= union
            assert union == fwd_only | bwd_only


class TestThresholds:
    """The peak rule has one home: a gap's level counts the peaks its float
    score reaches, as the oracle scores it."""

    @given(st.data(), corpora_with_weights(max_lines=8), orders, prune_thresholds, modes)
    def test_levels_count_the_peaks_the_oracle_score_reaches(self, data, lines_weights, n, prune_t, mode):
        lines, weights = lines_weights
        view = view_of(model_of(lines, 4, weights=weights), n, prune_t)
        oracle = reference.Segmenter(reference.window_counts(lines, n + 1, weights), n, prune_t)
        line_scores = [oracle_scores(oracle, line)[mode] for line in lines]
        # each score, a float either side of it, and the ends of the peak domain
        near = {p for s in chain.from_iterable(line_scores) for p in (math.nextafter(s, -1), s, math.nextafter(s, 2))}
        pool = sorted(p for p in near | {0.0, 1.0} if 0.0 <= p <= 1.0)
        ascending = sorted(data.draw(st.sets(st.sampled_from(pool), min_size=1, max_size=6)))
        table = thresholds(view, ascending, (mode,))
        for line, gap_scores in zip(lines, line_scores):
            assert levels(view, line, mode, table) == [bisect_right(ascending, score) for score in gap_scores]

    def test_a_rise_reaches_a_peak_as_its_float_score_does(self):
        # with top 10, degree 7 after 4 rises by 0.29999999999999993 and
        # misses peak 0.3, which degree 3 after 0 reaches; exact arithmetic
        # would cut both
        assert 7 / 10 - 4 / 10 < 0.3 == 3 / 10 - 0 / 10
        degrees = {"fwd": Counter({"a": 4, "b": 7, "c": 10, "d": 3}), "bwd": Counter()}
        view = Freedom(1, degrees, {"fwd": 10, "bwd": 0}, 0)
        table = thresholds(view, (0.3,), MODES)
        assert len(table["fwd"]) == 11 and table["fwd"][0] == [3] and table["fwd"][4] == [8]
        assert table["bwd"] == [[1]]  # a top of 0 has one row, where no score reaches a peak above 0
        assert levels(view, "abz", "fwd", table) == [1, 0]
        assert levels(view, "dz", "fwd", table) == [1]

    def test_table_cost_grows_with_top_times_peaks(self):
        # each peak's threshold is carried from row to row, so a top ten times
        # as large costs about ten times as many line events, not a hundred
        ascending = [k / 10 for k in range(10)]

        def table_events(top):
            others = [chr(0x100 + i) for i in range(top)]  # "a" has top successors and "b" top predecessors
            view = freedom(1, {window: 1 for c in others for window in ("a" + c, c + "b")}, 0)
            assert view.top == {"fwd": top, "bwd": top}
            return line_events(thresholds, view, ascending, MODES)[1]

        small, large = table_events(50), table_events(500)
        assert 9 * small < large < 11 * small


class TestSegment:
    def test_single_scalar_line(self):
        m = model_of(["ab"], 1)
        assert segment(m, "x", params()) == ("x",)

    def test_empty_line_rejected(self):
        m = model_of(["ab"], 1)
        with pytest.raises(DataError, match="cannot segment an empty line"):
            segment(m, "", params())

    def test_shared_prefix_vocabulary(self):
        # {ab, ac, ad} repeated: freedom jumps right after the shared "a"
        lines = ["ab", "ac", "ad"] * 3
        m = model_of(lines, 1)
        seg = segment(m, "ab", params(peak=0.5))
        assert seg == ("a", "b")
        oracle = reference.Segmenter(reference.window_counts(lines, 2), 1, 0)
        assert seg == tuple(reference.split_at("ab", oracle.cuts("ab", 0.5, "union")))

    def test_prune_applied_first(self):
        # unpruned: freedom("a")=2 of max 3 -> cut; pruned at 2 "a" loses
        # both edges while "x" keeps the max, so the profile drops to 0
        lines = ["ab", "ac"] + ["xb", "xc", "xd"] * 3
        m = model_of(lines, 1)
        assert segment(m, "ab", params(peak=0.5, mode="fwd")) == ("a", "b")
        assert segment(m, "ab", params(peak=0.5, prune=2, mode="fwd")) == ("ab",)

    @given(corpora_with_weights(max_lines=8), orders, peak_thresholds, prune_thresholds, modes)
    def test_lossless(self, lines_weights, n, peak, prune_t, mode):
        lines, weights = lines_weights
        m = model_of(lines, 4, weights=weights)
        for line in lines[:4]:
            seg = segment(m, line, SegmenterParams(n, peak, prune_t, mode))
            assert "".join(seg) == line
            assert all(seg)

    @given(corpora_with_weights(max_lines=8), orders, prune_thresholds, modes)
    def test_threshold_monotonicity(self, lines_weights, n, prune_t, mode):
        lines, weights = lines_weights
        m = model_of(lines, 4, weights=weights)
        line = lines[0]
        previous = None
        for peak in (0.0, 0.25, 0.5, 0.75, 1.0):
            tokens = segment(m, line, SegmenterParams(n, peak, prune_t, mode))
            cuts = set(accumulate(map(len, tokens[:-1])))
            if previous is not None:
                assert cuts <= previous
            previous = cuts

    @given(corpora_with_weights(max_lines=8), orders)
    def test_backward_forward_duality(self, lines_weights, n):
        lines, weights = lines_weights
        m = model_of(lines, 4, weights=weights)
        reversed_lines = [l[::-1] for l in lines]
        m_rev = model_of(reversed_lines, 4, weights=weights)
        for line in lines[:3]:
            bwd = profile(view_of(m, n), line, "bwd")
            fwd_rev = profile(view_of(m_rev, n), line[::-1], "fwd")
            assert bwd == tuple(reversed(fwd_rev))


class TestSegmentCorpus:
    def test_empty_corpus(self):
        m = model_of(["ab"], 1)
        assert segment_corpus(m, TextCorpus(()), params()) == []

    def test_the_first_empty_line_is_named(self):
        m = model_of(["ab"], 1)
        with pytest.raises(DataError, match=r"^cannot segment an empty line \(line 2\)$"):
            segment_corpus(m, TextCorpus(("ab", "", "b", "")), params())

    def test_identical_lines_identical_output(self):
        m = model_of(["ab", "ac"], 1)
        segs = segment_corpus(m, TextCorpus(("ab", "ab")), params())
        assert segs[0] == segs[1]

    def test_order_preserved_at_scale(self):
        m = model_of(["ab", "ac"], 1)
        corpus = TextCorpus(tuple(f"a{'b' if i % 2 else 'c'}" for i in range(1000)))
        segs = segment_corpus(m, corpus, params())
        assert len(segs) == 1000
        assert all("".join(s) == l for s, l in zip(segs, corpus.lines))

    def test_union_derives_only_its_order(self, monkeypatch):
        # one view of order n, both directions, serves every line
        derived = []
        real = ngram.freedom
        monkeypatch.setattr(ngram, "freedom", lambda *args: derived.append(args[:1] + args[2:]) or real(*args))
        m = model_of(["abcab", "abd", "cabd"], 3)
        segment_corpus(m, TextCorpus(("abcd", "dcab")), params(n=2, prune=1, mode="union"))
        assert derived == [(2, 1)]
