import pytest
from hypothesis import given
import hypothesis.strategies as st

from tlab.corpus import DataError
from tlab.metrics import boundary_counts, f1_score
from tlab.morphology import (
    AffixInventory,
    FreqLexicon,
    build_morph_model,
    filter_lexicon,
    greedy_parse,
    load_affixes,
    load_lexicon,
    weighted_morph_f1,
)
from tlab.segmenter import SegmenterParams, segment

import reference
from bruteforce import bf_greedy_parse
from cost import line_events
from strategies import view_of

# letters whose case folding changes their length ("ß" is "ss", "İ" is "i" and a
# combining dot, "ﬁ" is "fi") next to the plain letters and upper case they fold onto
FOLDING_ALPHABET = "abfisxIAFSßİﬁ\u0307"

ENGLISH = AffixInventory(
    prefixes=frozenset({"un", "re"}),
    suffixes=frozenset({"able", "ing", "ed"}),
    min_stem=3,
)


class TestLexiconIO:
    def test_tab_counts_and_default(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("walk\t10\nrun\n\nwalk\t2\n", encoding="utf-8")
        lex = load_lexicon(path)
        assert lex.entries == {"walk": 12, "run": 1}

    def test_bad_count_rejected(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("walk\tmany\n", encoding="utf-8")
        with pytest.raises(DataError, match="lex.txt:1"):
            load_lexicon(path)

    def test_affix_file_comments(self, tmp_path):
        path = tmp_path / "suf.txt"
        path.write_text("# suffixes\ning\nED\n\nable\n", encoding="utf-8")
        assert load_affixes(path) == frozenset({"ing", "ed", "able"})


class TestBuildMorphModel:
    def test_frequency_weighting(self):
        m = build_morph_model(FreqLexicon({"ab": 5}), 1)
        assert m.windows[1]["ab"] == 5

    def test_freedom_counts_words(self):
        m = build_morph_model(FreqLexicon({"ab": 1, "ac": 1}), 1)
        assert view_of(m, 1).degrees["fwd"].get("a", 0) == 2

    def test_doubling_frequencies_keeps_freedom(self):
        lex = {"ab": 2, "ac": 3, "abc": 1}
        m1 = build_morph_model(FreqLexicon(lex), 2)
        m2 = build_morph_model(FreqLexicon({w: 2 * c for w, c in lex.items()}), 2)
        for n in (1, 2):
            assert m2.windows[n] == {w: 2 * c for w, c in m1.windows[n].items()}
            assert view_of(m1, n) == view_of(m2, n)

    def test_empty_lexicon_rejected(self):
        with pytest.raises(DataError):
            build_morph_model(FreqLexicon({}), 1)


class TestGreedyParse:
    def test_prefix_and_suffix(self):
        assert greedy_parse("unbelievable", ENGLISH) == ("un", "believ", "able")

    def test_no_affix_applies(self):
        assert greedy_parse("cat", ENGLISH) == ("cat",)

    def test_longest_suffix(self):
        assert greedy_parse("running", ENGLISH) == ("runn", "ing")

    def test_min_stem_blocks_strip(self):
        inv = AffixInventory(frozenset({"un"}), frozenset({"able"}), min_stem=3)
        assert greedy_parse("unable", inv) == ("un", "able")  # "able" stays: stem floor

    def test_case_folded_match_keeps_casing(self):
        assert greedy_parse("UNbelievABLE", ENGLISH) == ("UN", "believ", "ABLE")

    def test_stacked_affixes(self):
        inv = AffixInventory(frozenset({"un", "re"}), frozenset({"ing", "ed"}), min_stem=2)
        assert greedy_parse("unredoing", inv) == ("un", "re", "do", "ing")

    def test_stem_floor_stops_stacking(self):
        inv = AffixInventory(frozenset({"un", "re"}), frozenset({"ing", "ed"}), min_stem=3)
        assert greedy_parse("unredoing", inv) == ("un", "re", "doing")

    @given(st.text("abcdefg", min_size=1, max_size=12))
    def test_concatenation_and_stem_floor(self, word):
        inv = AffixInventory(frozenset({"ab", "c"}), frozenset({"fg", "g"}), min_stem=2)
        parse = greedy_parse(word, inv)
        assert "".join(parse) == word
        assert all(parse)
        if len(parse) > 1:
            # something was stripped, so the remaining stem honours the floor
            stripped = {p.casefold() for p in parse} & (inv.prefixes | inv.suffixes)
            stem_candidates = [p for p in parse if p.casefold() not in stripped]
            assert all(len(p) >= inv.min_stem for p in stem_candidates)

    def test_empty_word_rejected(self):
        with pytest.raises(DataError):
            greedy_parse("", ENGLISH)

    def test_folding_never_lengthens_a_match(self):
        # "ß" folds to "ss", but a one-scalar piece only matches a one-scalar suffix
        inv = AffixInventory(frozenset(), frozenset({"ss", "x"}), min_stem=1)
        assert greedy_parse("abcdeß", inv) == bf_greedy_parse("abcdeß", inv) == ("abcdeß",)

    AFFIXES = st.frozensets(st.text(FOLDING_ALPHABET, min_size=1, max_size=4).map(str.casefold), max_size=6)

    @given(st.text(FOLDING_ALPHABET, min_size=1, max_size=12), AFFIXES, AFFIXES, st.integers(1, 4))
    def test_matches_the_per_affix_oracle(self, word, prefixes, suffixes, min_stem):
        inv = AffixInventory(prefixes, suffixes, min_stem)
        assert greedy_parse(word, inv) == bf_greedy_parse(word, inv)

    def test_step_cost_does_not_grow_with_the_affix_count(self):
        # a strip step costs one slice and fold per distinct affix length, so
        # 400 more suffixes of the same lengths, none of them matching, add
        # no line event once the inventory has been grouped
        few = frozenset({"ab", "cd", "efg", "hij"})
        letters = "klmnopqrstuvwxyz"
        pairs = [a + b for a in letters for b in letters]
        many = few | frozenset(pairs) | frozenset(p + "k" for p in pairs[:144])
        assert len(many) == len(few) + 400

        def parse_events(inv):
            greedy_parse("basehijcdab", inv)  # warm-up
            parse, count = line_events(greedy_parse, "basehijcdab", inv)
            assert parse == ("base", "hij", "cd", "ab")
            return count

        counts = [parse_events(AffixInventory(frozenset(), suffixes, min_stem=3)) for suffixes in (few, many)]
        assert counts[0] == counts[1] > 0


class TestMorphSegment:
    PARAMS = SegmenterParams(3, 0.5, 0, "union")

    def test_single_scalar_word(self):
        m = build_morph_model(FreqLexicon({"ab": 1}), 1)
        assert segment(m, "x", SegmenterParams(1, 0.5, 0, "union")) == ("x",)

    def test_shared_stem_boundary(self):
        # walked/walking/walker: continuation freedom jumps after the stem
        lex = {"walked": 1, "walking": 1, "walker": 1}
        m = build_morph_model(FreqLexicon(lex), 3)
        oracle = reference.Segmenter(reference.window_counts(list(lex), 4, [1, 1, 1]), 3, 0)
        for word in lex:
            pieces = segment(m, word, self.PARAMS)
            expected = reference.split_at(word, oracle.cuts(word, 0.5, "union"))
            assert list(pieces) == expected
            cuts = []
            pos = 0
            for piece in pieces[:-1]:
                pos += len(piece)
                cuts.append(pos)
            assert 4 in cuts  # a boundary right after "walk"

    @given(st.sampled_from(["walked", "walking", "walker"]), st.floats(0, 1))
    def test_lossless(self, word, peak):
        lex = {"walked": 1, "walking": 1, "walker": 1}
        m = build_morph_model(FreqLexicon(lex), 3)
        pieces = segment(m, word, SegmenterParams(3, peak, 0, "union"))
        assert "".join(pieces) == word


class TestWeightedMorphF1:
    def test_perfect_agreement(self):
        # model cuts right after "x"; greedy strips the same final letter
        from tlab.corpus import TextCorpus
        from tlab.ngram import build_model

        m = build_model(TextCorpus(("xa", "xb", "xc")), 1)
        lex = FreqLexicon({"nnxa": 3, "mmxb": 2})
        inv = AffixInventory(frozenset(), frozenset({"a", "b"}), min_stem=3)
        report = weighted_morph_f1(m, lex, inv, SegmenterParams(1, 0.5, 0, "fwd"))
        assert report.f1 == 1.0
        assert 0.0 <= report.anti_entropy <= 1.0 and report.compression_factor > 0.0

    def test_weighted_mean_three_to_one(self):
        # "bxa" (freq 3) parses exactly like the reference, "bax" (freq 1)
        # shares no boundary with it: overall (3*1 + 1*0) / 4 = 0.75
        from tlab.corpus import TextCorpus
        from tlab.ngram import build_model
        from tlab.segmenter import segment

        m = build_model(TextCorpus(("xa", "xb", "xc")), 1)
        lex = FreqLexicon({"bxa": 3, "bax": 1})
        inv = AffixInventory(frozenset(), frozenset({"a", "x"}), min_stem=2)
        params = SegmenterParams(1, 0.5, 0, "fwd")
        per_word = {
            word: f1_score(
                boundary_counts(
                    [segment(m, word, params)], [greedy_parse(word, inv)]
                )
            )
            for word in lex.entries
        }
        assert per_word == {"bxa": 1.0, "bax": 0.0}
        f1 = weighted_morph_f1(m, lex, inv, params).f1
        assert f1 == pytest.approx(0.75)

    def test_tally_matches_independent_loop(self):
        # 5 stems x 3 suffixes, equal frequency: recompute everything by hand
        stems = ["bag", "cem", "dif", "gol", "hup"]
        suffixes = ["ka", "li", "mo"]
        lex = FreqLexicon({s + x: 2 for s in stems for x in suffixes})
        inv = AffixInventory(frozenset(), frozenset(suffixes), min_stem=3)
        m = build_morph_model(lex, 3)
        params = SegmenterParams(2, 0.4, 0, "union")
        report = weighted_morph_f1(m, lex, inv, params)
        f1, s_value, c_value = report.f1, report.anti_entropy, report.compression_factor

        words = list(lex.entries)
        weights = [lex.entries[w] for w in words]
        f1_sum = 0.0
        piece_counts: dict[str, int] = {}
        tokens = chars = 0
        oracle = reference.Segmenter(reference.window_counts(words, 3, weights), 2, 0)
        for word, freq_w in zip(words, weights):
            predicted = reference.split_at(word, oracle.cuts(word, 0.4, "union"))
            parse = list(greedy_parse(word, inv))
            f1_sum += freq_w * f1_score(boundary_counts([predicted], [parse]))
            for piece in predicted:
                piece_counts[piece] = piece_counts.get(piece, 0) + freq_w
            tokens += freq_w * len(predicted)
            chars += freq_w * len(word)
        import math

        total_weight = sum(weights)
        assert f1 == pytest.approx(f1_sum / total_weight)
        entropy = -sum((c / tokens) * math.log2(c / tokens) for c in piece_counts.values())
        expected_s = 1.0 - entropy / math.log2(len(piece_counts))
        assert s_value == pytest.approx(expected_s)
        assert c_value == pytest.approx((tokens + sum(map(len, piece_counts))) / chars)

    def test_uniform_frequencies_equal_unweighted_mean(self):
        stems = ["bag", "cem", "dif"]
        suffixes = ["ka", "li"]
        lex = FreqLexicon({s + x: 1 for s in stems for x in suffixes})
        inv = AffixInventory(frozenset(), frozenset(suffixes), min_stem=3)
        m = build_morph_model(lex, 2)
        params = SegmenterParams(2, 0.3, 0, "union")
        f1 = weighted_morph_f1(m, lex, inv, params).f1
        from tlab.segmenter import segment

        per_word = [
            f1_score(
                boundary_counts(
                    [segment(m, w, params)], [greedy_parse(w, inv)]
                )
            )
            for w in lex.entries
        ]
        assert f1 == pytest.approx(sum(per_word) / len(per_word))


class TestFilterLexicon:
    def test_zero_is_identity(self):
        lex = FreqLexicon({"cat": 1, "caterpillar": 1})
        assert filter_lexicon(lex, 0).entries == lex.entries

    def test_strictly_longer(self):
        lex = FreqLexicon({"cat": 1, "caterpillar": 1})
        assert filter_lexicon(lex, 10).entries == {"caterpillar": 1}

    @given(st.dictionaries(st.text("ab", min_size=1, max_size=8), st.integers(1, 9), max_size=10),
           st.integers(0, 8))
    def test_never_grows(self, entries, cutoff):
        lex = FreqLexicon(entries)
        assert len(filter_lexicon(lex, cutoff).entries) <= len(lex.entries)
