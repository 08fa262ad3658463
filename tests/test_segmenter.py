from itertools import accumulate

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from tlab import ngram
from tlab.corpus import DataError, TextCorpus
from tlab.ngram import build_model, order_freedom
from tlab.segmenter import (
    MODES,
    SegmenterParams,
    detect_boundaries,
    grams_of,
    profile,
    scores,
    segment,
    segment_corpus,
)

import reference
from strategies import (
    corpora_with_weights,
    modes,
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
        assert profile(view_of(m, 1), "ab", "fwd") == (1.0,)

    def test_absent_gram_scores_zero(self):
        m = model_of(["ab", "ac"], 1)
        assert profile(view_of(m, 1), "zb", "fwd") == (0.0,)

    def test_length_two_line(self):
        m = model_of(["ab"], 1)
        assert len(profile(view_of(m, 1), "xy", "fwd")) == 1

    def test_short_line_empty_profile(self):
        m = model_of(["ab"], 1)
        assert profile(view_of(m, 1), "a", "fwd") == ()

    def test_incomplete_context_scores_zero(self):
        m = model_of(["abcd"], 3)
        p = profile(view_of(m, 3), "abcd", "fwd")
        assert p[0] == 0.0 and p[1] == 0.0

    @given(corpora_with_weights(max_lines=8), orders)
    def test_matches_bruteforce(self, lines_weights, n):
        lines, weights = lines_weights
        m = model_of(lines, 4, weights=weights)
        oracle = reference.Segmenter(reference.window_counts(lines, n + 1, weights), n, 0)
        for direction in ("fwd", "bwd"):
            for line in lines[:3]:
                got = profile(view_of(m, n), line, direction)
                expected = dict(zip(("fwd", "bwd"), oracle.profiles(line)))[direction]
                assert list(got) == expected


# spaces, tabs and a scalar outside the Basic Multilingual Plane among letters
MIXED_TEXT = st.text(alphabet="ab \t\U0001d538", min_size=1, max_size=6)


class TestSharedSlices:
    @given(st.lists(st.tuples(MIXED_TEXT, st.integers(1, 3)), min_size=1, max_size=6),
           st.lists(MIXED_TEXT, min_size=1, max_size=4), orders, prune_thresholds)
    @example([("ab", 1)], ["a"], 1, 0)  # a line of one scalar
    @example([("ab", 1), ("b\U0001d538", 2)], ["ab", "a\t\U0001d538"], 2, 0)  # order 2 has no windows
    @example([("a b", 2), ("a\tb", 1), ("ab", 3)], ["a b\U0001d538", "b"], 1, 2)  # a pruned model
    def test_caller_slices_score_as_the_line_does(self, train_weights, test_lines, n, prune_t):
        # scores from a caller's gram slices are the scores that slice the
        # line themselves, to the last bit, and the brute-force ones
        train, weights = map(list, zip(*train_weights))
        view = view_of(model_of(train, 4, weights=weights), n, prune_t)
        if all(len(line) <= n for line in train):
            assert view.top == {"fwd": 0, "bwd": 0}
        oracle = reference.Segmenter(reference.window_counts(train, n + 1, weights), n, prune_t)
        for line in test_lines:
            grams = grams_of(line, n)
            fwd, bwd = oracle.profiles(line)
            assert list(profile(view, line, "fwd", grams)) == fwd
            assert list(profile(view, line, "bwd", grams)) == bwd
            rises = [value - before for value, before in zip(fwd, [0.0, *fwd])]
            drops = [value - after for value, after in zip(bwd, [*bwd[1:], 0.0])]
            expected = {"fwd": rises, "bwd": drops, "union": [max(r, d) for r, d in zip(rises, drops)]}
            for mode in MODES:
                assert scores(view, line, mode, grams) == scores(view, line, mode) == expected[mode]


class TestDetectBoundaries:
    def test_all_zero_profiles(self):
        m = model_of(["ab"], 1)
        assert scores(view_of(m, 1), "zzzz", "union") == [0.0, 0.0, 0.0]
        assert detect_boundaries([0.0, 0.0, 0.0], 0.5) == []

    def test_zero_threshold_marks_nonnegative(self):
        assert detect_boundaries([0.0, 0.0], 0.0) == [1, 2]
        assert detect_boundaries([0.0, -0.5, 0.25], 0.0) == [1, 3]

    def test_rising_edge(self):
        m = model_of(["ab", "ac"], 1)
        assert detect_boundaries(scores(view_of(m, 1), "ab", "fwd"), 0.5) == [1]

    def test_scores_are_rises_drops_and_their_max(self):
        # "abc"/"abd": "a" has 1 successor of the maximum 2 ("b" -> c|d);
        # every gram has exactly 1 predecessor
        m = model_of(["abc", "abd"], 1)
        assert profile(view_of(m, 1), "abc", "fwd") == (0.5, 1.0)
        assert profile(view_of(m, 1), "abc", "bwd") == (1.0, 1.0)
        assert scores(view_of(m, 1), "abc", "fwd") == [0.5, 0.5]
        assert scores(view_of(m, 1), "abc", "bwd") == [0.0, 1.0]
        assert scores(view_of(m, 1), "abc", "union") == [0.5, 1.0]

    @given(corpora_with_weights(max_lines=8), orders, peak_thresholds)
    def test_union_contains_single_modes(self, lines_weights, n, peak):
        lines, weights = lines_weights
        m = model_of(lines, 4, weights=weights)
        for line in lines[:3]:
            union = set(detect_boundaries(scores(view_of(m, n), line, "union"), peak))
            fwd_only = set(detect_boundaries(scores(view_of(m, n), line, "fwd"), peak))
            bwd_only = set(detect_boundaries(scores(view_of(m, n), line, "bwd"), peak))
            assert fwd_only <= union and bwd_only <= union
            assert union == fwd_only | bwd_only


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
