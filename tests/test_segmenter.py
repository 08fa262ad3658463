from itertools import accumulate

import pytest
from hypothesis import given

from tlab.corpus import DataError, TextCorpus
from tlab.ngram import build_model
from tlab.segmenter import (
    SegmenterParams,
    detect_boundaries,
    profile,
    scores,
    segment,
    segment_corpus,
)

from bruteforce import bf_profile, bf_segment
from strategies import (
    corpora_with_weights,
    modes,
    orders,
    peak_thresholds,
    prune_thresholds,
)


def model_of(lines, n_max=2, weights=None):
    return build_model(TextCorpus(tuple(lines), "t"), n_max, line_weights=weights)


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
        assert profile(m, "ab", 1, "forward") == (1.0,)

    def test_absent_gram_scores_zero(self):
        m = model_of(["ab", "ac"], 1)
        assert profile(m, "zb", 1, "forward") == (0.0,)

    def test_length_two_line(self):
        m = model_of(["ab"], 1)
        assert len(profile(m, "xy", 1, "forward")) == 1

    def test_short_line_empty_profile(self):
        m = model_of(["ab"], 1)
        assert profile(m, "a", 1, "forward") == ()

    def test_incomplete_context_scores_zero(self):
        m = model_of(["abcd"], 3)
        p = profile(m, "abcd", 3, "forward")
        assert p[0] == 0.0 and p[1] == 0.0

    @given(corpora_with_weights(max_lines=8), orders)
    def test_matches_bruteforce(self, lines_weights, n):
        lines, weights = lines_weights
        m = model_of(lines, 4, weights=weights)
        for direction in ("forward", "backward"):
            for line in lines[:3]:
                got = profile(m, line, n, direction)
                expected = bf_profile(lines, weights, line, n, direction)
                assert list(got) == expected


class TestDetectBoundaries:
    def test_all_zero_profiles(self):
        m = model_of(["ab"], 1)
        assert scores(m, "zzzz", 1, "union") == [0.0, 0.0, 0.0]
        assert detect_boundaries([0.0, 0.0, 0.0], 0.5) == []

    def test_zero_threshold_marks_nonnegative(self):
        assert detect_boundaries([0.0, 0.0], 0.0) == [1, 2]
        assert detect_boundaries([0.0, -0.5, 0.25], 0.0) == [1, 3]

    def test_rising_edge(self):
        m = model_of(["ab", "ac"], 1)
        assert detect_boundaries(scores(m, "ab", 1, "forward"), 0.5) == [1]

    def test_scores_are_rises_drops_and_their_max(self):
        # "abc"/"abd": "a" has 1 successor of the maximum 2 ("b" -> c|d);
        # every gram has exactly 1 predecessor
        m = model_of(["abc", "abd"], 1)
        assert profile(m, "abc", 1, "forward") == (0.5, 1.0)
        assert profile(m, "abc", 1, "backward") == (1.0, 1.0)
        assert scores(m, "abc", 1, "forward") == [0.5, 0.5]
        assert scores(m, "abc", 1, "backward") == [0.0, 1.0]
        assert scores(m, "abc", 1, "union") == [0.5, 1.0]

    @given(corpora_with_weights(max_lines=8), orders, peak_thresholds)
    def test_union_contains_single_modes(self, lines_weights, n, peak):
        lines, weights = lines_weights
        m = model_of(lines, 4, weights=weights)
        for line in lines[:3]:
            union = set(detect_boundaries(scores(m, line, n, "union"), peak))
            fwd_only = set(detect_boundaries(scores(m, line, n, "forward"), peak))
            bwd_only = set(detect_boundaries(scores(m, line, n, "backward"), peak))
            assert fwd_only <= union and bwd_only <= union
            assert union == fwd_only | bwd_only


class TestSegment:
    def test_single_scalar_line(self):
        m = model_of(["ab"], 1)
        assert segment(m, "x", params()) == ("x",)

    def test_empty_line_rejected(self):
        m = model_of(["ab"], 1)
        with pytest.raises(DataError):
            segment(m, "", params())

    def test_shared_prefix_vocabulary(self):
        # {ab, ac, ad} repeated: freedom jumps right after the shared "a"
        lines = ["ab", "ac", "ad"] * 3
        m = model_of(lines, 1)
        seg = segment(m, "ab", params(peak=0.5))
        assert seg == ("a", "b")
        assert seg == tuple(bf_segment(lines, [1] * len(lines), "ab", 1, 0.5, 0, "union"))

    def test_prune_applied_first(self):
        # unpruned: freedom("a")=2 of max 3 -> cut; pruned at 2 "a" loses
        # both edges while "x" keeps the max, so the profile drops to 0
        lines = ["ab", "ac"] + ["xb", "xc", "xd"] * 3
        m = model_of(lines, 1)
        assert segment(m, "ab", params(peak=0.5, mode="forward")) == ("a", "b")
        assert segment(m, "ab", params(peak=0.5, prune=2, mode="forward")) == ("ab",)

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
            bwd = profile(m, line, n, "backward")
            fwd_rev = profile(m_rev, line[::-1], n, "forward")
            assert bwd == tuple(reversed(fwd_rev))


class TestSegmentCorpus:
    def test_empty_corpus(self):
        m = model_of(["ab"], 1)
        assert segment_corpus(m, TextCorpus((), "t"), params()) == []

    def test_identical_lines_identical_output(self):
        m = model_of(["ab", "ac"], 1)
        segs = segment_corpus(m, TextCorpus(("ab", "ab"), "t"), params())
        assert segs[0] == segs[1]

    def test_order_preserved_at_scale(self):
        m = model_of(["ab", "ac"], 1)
        corpus = TextCorpus(tuple(f"a{'b' if i % 2 else 'c'}" for i in range(1000)), "t")
        segs = segment_corpus(m, corpus, params())
        assert len(segs) == 1000
        assert all("".join(s) == l for s, l in zip(segs, corpus.lines))

    def test_union_derives_only_its_order(self):
        m = model_of(["abcab", "abd", "cabd"], 3)
        segment_corpus(m, TextCorpus(("abcd", "dcab"), "t"), params(n=2, mode="union"))
        assert set(m.degrees) == {(2, "forward"), (2, "backward")}
        assert set(m.max_degrees) == {(2, "forward"), (2, "backward")}
