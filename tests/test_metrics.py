import math
import tracemalloc

import hypothesis.strategies as st
import pytest
from hypothesis import given

from tlab.corpus import DataError, GoldSegmentation, TextCorpus
from tlab.metrics import (
    BoundaryCounts,
    MetricsReport,
    TokenStats,
    anti_entropy,
    boundary_counts,
    compression_factor,
    cross_split_f1,
    f1_score,
    nonspace_prefix,
    project_cuts,
    split_tallies,
    stripped_boundaries,
    token_stats,
)
from tlab.ngram import build_model
from tlab.segmenter import SegmenterParams, detect_boundaries, segment_corpus
from tlab.synth import make_segmented_corpus, make_vocabulary

import reference


def segs(*token_lines):
    return list(token_lines)


class TestBoundaryF1:
    def test_identity(self):
        pred = segs(("ab", "cd"), ("x",))
        gold = GoldSegmentation((("ab", "cd"), ("x",)))
        counts = boundary_counts(pred, gold.lines)
        f1 = f1_score(counts)
        assert f1 == 1.0
        assert counts == BoundaryCounts(1, 0, 0)

    def test_partial_overlap(self):
        # pred cuts {2}, gold cuts {1,2,3}: P=1, R=1/3, F1=0.5
        pred = segs(("ab", "cd"),)
        gold = GoldSegmentation((("a", "b", "c", "d"),))
        counts = boundary_counts(pred, gold.lines)
        f1 = f1_score(counts)
        assert counts == BoundaryCounts(1, 0, 2)
        assert f1 == 0.5

    def test_pred_only_boundaries(self):
        pred = segs(("ab", "cd"),)
        gold = GoldSegmentation((("abcd",),))
        f1 = f1_score(boundary_counts(pred, gold.lines))
        assert f1 == 0.0

    def test_both_empty_boundaries(self):
        pred = segs(("abcd",),)
        gold = GoldSegmentation((("abcd",),))
        f1 = f1_score(boundary_counts(pred, gold.lines))
        assert f1 == 1.0

    def test_whitespace_adjacent_cuts_collapse(self):
        # "ab cd" tokenized three ways all match gold ("ab","cd") after stripping
        gold = GoldSegmentation((("ab", "cd"),))
        for tokens in (("ab", " cd"), ("ab ", "cd"), ("ab", " ", "cd")):
            counts = boundary_counts(segs(tokens), gold.lines)
            f1 = f1_score(counts)
            assert f1 == 1.0, tokens

    def test_line_count_mismatch(self):
        with pytest.raises(DataError, match="line count"):
            f1_score(boundary_counts(segs(("ab",)), GoldSegmentation((("ab",), ("cd",))).lines))

    def test_sums_over_lines(self):
        # cuts {1, 2} against {2, 3}, none against {4}, and {5} against none
        pred = segs(("a", "b", "cd"), ("abcde",), ("abcde", "f"))
        ref = segs(("ab", "c", "d"), ("abcd", "e"), ("abcdef",))
        assert boundary_counts(pred, ref) == BoundaryCounts(1, 2, 2)

    def test_empty(self):
        assert boundary_counts([], []) == BoundaryCounts(0, 0, 0)

    def test_stream_mismatch_reports_line(self):
        pred = segs(("ab",), ("xy",))
        gold = GoldSegmentation((("ab",), ("zz",)))
        with pytest.raises(DataError, match="line 2"):
            f1_score(boundary_counts(pred, gold.lines))

    @given(
        st.lists(
            st.lists(st.text("abc", min_size=1, max_size=4), min_size=1, max_size=5),
            min_size=1,
            max_size=6,
        )
    )
    def test_role_swap_keeps_f1(self, token_lines):
        resegmented = [list("".join(tokens)) for tokens in token_lines]
        c_ab = boundary_counts(token_lines, resegmented)
        c_ba = boundary_counts(resegmented, token_lines)
        assert c_ab.true_positive == c_ba.true_positive
        assert c_ab.false_positive == c_ba.false_negative
        assert c_ab.false_negative == c_ba.false_positive
        assert f1_score(c_ab) == f1_score(c_ba)


def general_prefix_and_stream(tokens):
    """Prefix table and stream by the per-character loop, for any line."""
    line = "".join(tokens)
    prefix = [0]
    for ch in line:
        prefix.append(prefix[-1] + (not ch.isspace()))
    stream = "".join(ch for ch in line if not ch.isspace())
    return tuple(prefix), stream


class TestStrippedBoundaries:
    @given(
        st.lists(
            st.text("abx\\", max_size=4)
            | st.text(st.sampled_from("ab \t\r\x1c\x85\u3000") | st.characters(), max_size=4),
            min_size=1,
            max_size=6,
        )
    )
    def test_whitespace_free_fast_path_matches_general_path(self, tokens):
        prefix, stream = general_prefix_and_stream(tokens)
        assert nonspace_prefix("".join(tokens)) == prefix
        assert stripped_boundaries(tokens, 1)[0] == stream

    @given(
        st.lists(st.sampled_from(["", " ", "\t", " \u3000", "a", "bc", "a b", " d", "e\x85"]), max_size=8),
        st.integers(1, 5),
    )
    def test_boundaries_are_the_reference_set(self, tokens, level):
        # whitespace-only and empty tokens included: a cut beside removed
        # whitespace, at a stream edge or repeated lands where the oracle's does
        stream, projected = stripped_boundaries(tokens, level)
        ref_stream, bounds = reference.stripped_boundaries(tokens)
        assert stream == ref_stream
        assert len(projected) == max(len(stream) - 1, 0)
        assert {p for p, x in enumerate(projected, 1) if x} == bounds
        assert set(projected) <= {0, level}


class TestTokenStats:
    def test_basic_counts(self):
        stats = token_stats([("ab", "ab")])
        assert stats.lexicon == {"ab": 2}
        assert stats.total_tokens == 2
        assert stats.total_chars == 4

    def test_empty(self):
        stats = token_stats([])
        assert stats == TokenStats({}, 0, 0)

    def test_whitespace_drop(self):
        stats = token_stats([("a", " ", "b"), ("\t\u3000", "a")])
        assert stats.lexicon == {"a": 2, "b": 1}
        assert stats.total_chars == 3

    def test_accepts_segmentations(self):
        stats = token_stats(segs(("ab", "ab")))
        assert stats.lexicon == {"ab": 2}


class TestAntiEntropy:
    def test_uniform_four_types(self):
        assert anti_entropy(TokenStats({"a": 1, "b": 1, "c": 1, "d": 1}, 4, 4)) == 0.0

    def test_single_type(self):
        assert anti_entropy(TokenStats({"a": 9}, 9, 9)) == 1.0

    def test_three_one_counts(self):
        # oracle: direct entropy of {3/4, 1/4}
        h = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
        expected = 1.0 - h / math.log2(2)
        got = anti_entropy(TokenStats({"a": 3, "b": 1}, 4, 4))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.188722, abs=1e-6)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            anti_entropy(TokenStats({}, 0, 0))

    @given(st.dictionaries(st.text("abcd", min_size=1, max_size=3), st.integers(1, 50), min_size=1, max_size=10))
    def test_in_unit_interval(self, lexicon):
        total = sum(lexicon.values())
        value = anti_entropy(TokenStats(lexicon, total, total))
        assert 0.0 <= value <= 1.0

    @given(st.lists(st.integers(1, 50), min_size=1, max_size=10))
    def test_rename_invariance(self, counts):
        total = sum(counts)
        named_a = {f"tok{i}": c for i, c in enumerate(counts)}
        named_b = {f"other{i}x": c for i, c in enumerate(counts)}
        assert anti_entropy(TokenStats(named_a, total, total)) == anti_entropy(
            TokenStats(named_b, total, total)
        )


class TestCompressionFactor:
    def test_formula_cases(self):
        assert compression_factor(token_stats([("ab", "ab")])) == pytest.approx(1.0, abs=1e-12)
        assert compression_factor(token_stats([("aaaa", "aaaa")])) == pytest.approx(0.75, abs=1e-12)
        assert compression_factor(token_stats([("abab",)])) == pytest.approx(1.25, abs=1e-12)

    def test_line_permutation_invariance(self):
        lines = [("ab", "c"), ("de",), ("ab",)]
        assert compression_factor(token_stats(lines)) == compression_factor(
            token_stats(list(reversed(lines)))
        )

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            compression_factor(TokenStats({}, 0, 0))


class TestCrossSplitF1:
    PARAMS = SegmenterParams(1, 0.5, 0, "union")

    def test_empty_test_line_is_data_error(self):
        train = TextCorpus(("abab", "abab"))
        with pytest.raises(DataError, match=r"empty line \(line 2\)"):
            cross_split_f1(train, TextCorpus(("ab", "")), self.PARAMS)

    def test_identical_halves_give_one(self):
        train = TextCorpus(("abab", "abab", "abab", "abab"))
        test = TextCorpus(("ab", "abab"))
        assert cross_split_f1(train, test, self.PARAMS) == 1.0

    def test_directional_symmetry(self):
        train = TextCorpus(("ab", "cd", "abcd", "dcba", "aabb", "ccdd"))
        test = TextCorpus(("abcd", "dcba"))
        from tlab.corpus import split_even_odd
        from tlab.metrics import boundary_counts as bc

        part_a, part_b = split_even_odd(train)
        m_a = build_model(part_a, 2)
        m_b = build_model(part_b, 2)
        seg_a = segment_corpus(m_a, test, self.PARAMS)
        seg_b = segment_corpus(m_b, test, self.PARAMS)
        f_ab = f1_score(bc(seg_a, seg_b))
        f_ba = f1_score(bc(seg_b, seg_a))
        assert f_ab == f_ba
        assert cross_split_f1(train, test, self.PARAMS) == pytest.approx((f_ab + f_ba) / 2)

    def test_divergent_halves_match_bruteforce_pipeline(self):
        # eight lines with deliberately different even/odd vocabularies
        lines = ("aban", "xyxy", "acan", "xzxz", "adan", "xwxw", "aean", "xvxv")
        train = TextCorpus(lines)
        test = TextCorpus(("aban", "xyxy"))
        got = cross_split_f1(train, test, self.PARAMS)

        even = [lines[i] for i in range(0, 8, 2)]
        odd = [lines[i] for i in range(1, 8, 2)]

        def tokenize_all(train_lines):
            oracle = reference.Segmenter(reference.window_counts(train_lines, 2), 1, 0)
            return [reference.split_at(line, oracle.cuts(line, 0.5, "union")) for line in test.lines]

        seg_a, seg_b = tokenize_all(even), tokenize_all(odd)
        f_ab = f1_score(boundary_counts(seg_a, seg_b))
        f_ba = f1_score(boundary_counts(seg_b, seg_a))
        assert got == pytest.approx((f_ab + f_ba) / 2)
        assert 0.0 <= got <= 1.0

    def test_peak_memory_in_proportion_to_the_test_text(self):
        # the split tally keeps only the levels that reach the peak, not
        # every gap level of every line until the end
        words, weights = make_vocabulary(7, size=50)
        train, _ = make_segmented_corpus(words, weights, 2, lines=600, spaces=False)
        test, _ = make_segmented_corpus(words, weights, 3, lines=600, spaces=False)
        tracemalloc.start()
        try:
            cross_split_f1(train, test, SegmenterParams(3, 0.4, 0, "union"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50 * sum(map(len, test.lines))


@st.composite
def leveled_line(draw, bins):
    """A line of letters and whitespace runs, with whitespace at either end,
    and two models' levels, from 0 to ``bins``, for each of its gaps."""
    line = "".join(draw(st.lists(st.sampled_from(["a", "bc", " ", "\t", "  ", " \t"]), min_size=1, max_size=6)))
    gap_levels = st.lists(st.integers(0, bins), min_size=len(line) - 1, max_size=len(line) - 1)
    return line, (draw(gap_levels), draw(gap_levels))


class TestSplitTally:
    @given(st.data())
    def test_counts_equal_tallying_each_threshold_cuts(self, data):
        # one entry per peak, from the highest down, each as tallying that
        # peak's cuts; the second side is a model's, or gold's, which holds
        # level bins at drawn stripped positions and cuts them at every peak
        bins = data.draw(st.integers(1, 4))
        leveled = data.draw(st.lists(leveled_line(bins), max_size=5))
        gold = data.draw(st.booleans(), label="second side is gold")
        prefixes = [nonspace_prefix(line) for line, _ in leveled]
        pairs = [[project_cuts(prefix, gap_levels) for gap_levels in pair] for prefix, (_, pair) in zip(prefixes, leveled)]
        gold_tokens = []
        if gold:
            for (line, _), pair in zip(leveled, pairs):
                stream = "".join(line.split())
                flags = data.draw(st.lists(st.booleans(), min_size=len(pair[1]), max_size=len(pair[1])))
                pair[1] = [bins if flag else 0 for flag in flags]
                gold_tokens.append(reference.split_at(stream, [p for p, flag in enumerate(flags, 1) if flag]))
        tallied = split_tallies(pairs, bins)
        assert len(tallied) == bins
        for level, counts in zip(range(bins, 0, -1), tallied):
            cut = [[reference.split_at(line, detect_boundaries(gap_levels, level)) for gap_levels in pair]
                   for line, pair in leveled]
            side_a = [a for a, _ in cut]
            side_b = gold_tokens if gold else [b for _, b in cut]
            assert counts == reference.boundary_tally(side_a, side_b)


class TestDerivedMetrics:
    """The columns that :meth:`MetricsReport.of` derives from F1, anti-entropy, compression factor and csf1."""

    def test_without_csf1_avg3_is_none(self):
        assert MetricsReport.of(0.9, 0.2, 0.8) == (0.9, 0.2, 0.8, 1 / 0.8, None, None, 0.5, 0.2 * 0.8)

    def test_corners(self):
        # c = 0 cannot occur: any character makes at least one token
        assert MetricsReport.of(0, 0, 1, 0) == (0, 0, 1, 1, 0, 1 / 3, 0.5, 0)
        assert MetricsReport.of(1, 1, 1, 1) == (1, 1, 1, 1, 1, 1, 1, 1)

    def test_arithmetic(self):
        report = MetricsReport.of(0.7, 0.2, 0.8, 0.5)
        assert report.f1 == 0.7 and report.csf1 == 0.5
        assert report.reciprocal_cf == 1.0 / 0.8
        assert report.avg3 == pytest.approx(0.5)
        assert report.avg2 == pytest.approx(0.5)
        assert report.product == pytest.approx(0.16)
