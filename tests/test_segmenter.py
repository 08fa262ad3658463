import math
from bisect import bisect_right
from itertools import accumulate, chain

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from tlab import segmenter
from tlab.corpus import DataError, TextCorpus
from tlab.ngram import prune
from tlab.segmenter import (
    MODES,
    SegmenterParams,
    detect_boundaries,
    freedom,
    grams_of,
    levels,
    order_freedom,
    profile,
    segment,
    segment_corpus,
)

import reference
from cost import line_events
from strategies import (
    corpora_with_weights,
    model_of,
    modes,
    oracle_scores,
    orders,
    peak_thresholds,
    prune_thresholds,
    tops,
    view_of,
)


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
        assert tops(view_of(m, 1))["fwd"] == 2

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
                assert list(got) == [round(value * tops(view)[direction]) for value in expected]


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
        ascending = (0.0, 0.5, 1.0)
        view = freedom(n, prune(model_of(train, 4, weights=weights).windows.get(n, {}), prune_t), ascending, MODES)
        if all(len(line) <= n for line in train):
            assert tops(view) == {"fwd": 0, "bwd": 0}
        oracle = reference.Segmenter(reference.window_counts(train, n + 1, weights), n, prune_t)
        for line in test_lines:
            grams = grams_of(line, n)
            for direction, expected in zip(("fwd", "bwd"), oracle.profiles(line)):
                degrees = [round(value * tops(view)[direction]) for value in expected]
                assert list(profile(view, line, direction, grams)) == list(profile(view, line, direction)) == degrees
            for mode, gap_scores in oracle_scores(oracle, line).items():
                expected = [bisect_right(ascending, score) for score in gap_scores]
                assert levels(view, line, mode, grams) == levels(view, line, mode) == expected


class TestDetectBoundaries:
    def test_all_zero_profiles(self):
        m = model_of(["ab"], 1)
        assert levels(view_of(m, 1), "zzzz", "union") == [0, 0, 0]
        assert detect_boundaries([0, 0, 0], 1) == []

    def test_zero_threshold_marks_nonnegative(self):
        # "abz" rises by 1 at its first gap and by -1 at its second: a peak
        # of 0 is reached by every score but a negative one
        view = order_freedom(model_of(["ab", "ac"], 1), params(peak=0.0, mode="fwd"))
        assert levels(view, "abz", "fwd") == [1, 0]
        assert detect_boundaries([1, 0, 1], 1) == [1, 3]
        assert detect_boundaries([0, 2, 1], 2) == [2]

    def test_rising_edge(self):
        view = order_freedom(model_of(["ab", "ac"], 1), params(peak=0.5, mode="fwd"))
        assert detect_boundaries(levels(view, "ab", "fwd"), 1) == [1]

    def test_scores_are_rises_drops_and_their_max(self):
        # "abc"/"abd": "a" has 1 successor of the maximum 2 ("b" -> c|d);
        # every gram has exactly 1 predecessor. So the forward rises are 0.5
        # and 0.5, the backward drops 0.0 and 1.0
        view = freedom(1, model_of(["abc", "abd"], 1).windows[1], (0.25, 0.5, 1.0), MODES)
        assert profile(view, "abc", "fwd") == (1, 2)
        assert profile(view, "abc", "bwd") == (1, 1)
        assert levels(view, "abc", "fwd") == [2, 2]
        assert levels(view, "abc", "bwd") == [0, 3]
        assert levels(view, "abc", "union") == [2, 3]

    @given(corpora_with_weights(max_lines=8), orders, peak_thresholds)
    def test_union_contains_single_modes(self, lines_weights, n, peak):
        lines, weights = lines_weights
        view = order_freedom(model_of(lines, 4, weights=weights), params(n, peak))
        for line in lines[:3]:
            union = set(detect_boundaries(levels(view, line, "union"), 1))
            fwd_only = set(detect_boundaries(levels(view, line, "fwd"), 1))
            bwd_only = set(detect_boundaries(levels(view, line, "bwd"), 1))
            assert fwd_only <= union and bwd_only <= union
            assert union == fwd_only | bwd_only


class TestFreedomRows:
    """The peak rule has one home, the threshold rows of :func:`freedom`: a
    gap's level counts the peaks its float score reaches, as the oracle
    scores it."""

    @given(st.data(), corpora_with_weights(max_lines=8), orders, prune_thresholds, modes)
    def test_levels_count_the_peaks_the_oracle_score_reaches(self, data, lines_weights, n, prune_t, mode):
        lines, weights = lines_weights
        windows = prune(model_of(lines, 4, weights=weights).windows.get(n, {}), prune_t)
        oracle = reference.Segmenter(reference.window_counts(lines, n + 1, weights), n, prune_t)
        line_scores = [oracle_scores(oracle, line)[mode] for line in lines]
        # each score, a float either side of it, and the ends of the peak domain
        near = {p for s in chain.from_iterable(line_scores) for p in (math.nextafter(s, -1), s, math.nextafter(s, 2))}
        pool = sorted(p for p in near | {0.0, 1.0} if 0.0 <= p <= 1.0)
        ascending = sorted(data.draw(st.sets(st.sampled_from(pool), min_size=1, max_size=6)))
        view = freedom(n, windows, ascending, (mode,))
        for line, gap_scores in zip(lines, line_scores):
            assert levels(view, line, mode) == [bisect_right(ascending, score) for score in gap_scores]

    def test_a_rise_reaches_a_peak_as_its_float_score_does(self):
        # with top 10, degree 7 after 4 rises by 0.29999999999999993 and
        # misses peak 0.3, which degree 3 after 0 reaches; exact arithmetic
        # would cut both
        assert 7 / 10 - 4 / 10 < 0.3 == 3 / 10 - 0 / 10
        successors = "0123456789"
        windows = {gram + c: 1 for gram, degree in zip("abcd", (4, 7, 10, 3)) for c in successors[:degree]}
        view = freedom(1, windows, (0.3,), ("fwd",))
        assert view.degrees == {"fwd": {"a": 4, "b": 7, "c": 10, "d": 3}}
        assert len(view.rows["fwd"]) == 11 and view.rows["fwd"][0] == [3] and view.rows["fwd"][4] == [8]
        # a top of 0 has one row, where no score reaches a peak above 0
        assert freedom(1, {}, (0.3,), MODES).rows == {"fwd": [[1]], "bwd": [[1]]}
        assert levels(view, "abz", "fwd") == [1, 0]
        assert levels(view, "dz", "fwd") == [1]

    def test_table_cost_grows_with_top_times_peaks(self):
        # each peak's threshold is carried from row to row, so a top ten times
        # as large costs about ten times as many line events, not a hundred
        ascending = [k / 10 for k in range(10)]

        def table_events(top):
            others = [chr(0x100 + i) for i in range(top)]  # "a" has top successors and "b" top predecessors
            windows = {window: 1 for c in others for window in ("a" + c, c + "b")}
            view, events = line_events(freedom, 1, windows, ascending, MODES)
            assert tops(view) == {"fwd": top, "bwd": top}
            return events

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
        real = segmenter.freedom
        monkeypatch.setattr(segmenter, "freedom", lambda *args: derived.append(args[:1] + args[2:]) or real(*args))
        m = model_of(["abcab", "abd", "cabd"], 3)
        segment_corpus(m, TextCorpus(("abcd", "dcab")), params(n=2, peak=0.5, prune=1, mode="union"))
        assert derived == [(2, (0.5,), ("union",))]
