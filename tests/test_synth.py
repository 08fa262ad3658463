from itertools import product

import pytest

from tlab.corpus import DataError
from tlab.morphology import greedy_parse
from tlab.synth import DEFAULT_ALPHABET, make_affixed_lexicon, make_segmented_corpus, make_vocabulary

from bruteforce import bf_segmented_corpus


class TestSegmentedCorpus:
    @pytest.mark.parametrize("spaces", [True, False])
    @pytest.mark.parametrize("min_words, max_words", [(1, 1), (3, 6), (5, 12), (1, 40)])
    @pytest.mark.parametrize("seed", [1, 2, 7, 1234])
    def test_draws_as_weights_passed_on_every_line(self, spaces, min_words, max_words, seed):
        # make_segmented_corpus accumulates the weights once; every draw must
        # stay the one that random.choices(weights=...) makes line by line
        words, weights = make_vocabulary(seed + 40, size=50)
        corpus, gold = make_segmented_corpus(
            words, weights, seed, lines=300, min_words=min_words, max_words=max_words, spaces=spaces
        )
        raw, tokens = bf_segmented_corpus(words, weights, seed, 300, min_words, max_words, spaces)
        assert corpus.lines == tuple(raw)
        assert gold.lines == tuple(tokens)

    def test_uneven_weights_over_a_small_vocabulary(self):
        words, weights = ("a", "bb", "ccc"), (0.1, 5.0, 1e-3)
        corpus, gold = make_segmented_corpus(words, weights, 3, lines=200, min_words=2, max_words=9)
        raw, tokens = bf_segmented_corpus(words, weights, 3, 200, 2, 9, True)
        assert (corpus.lines, gold.lines) == (tuple(raw), tuple(tokens))


class TestVocabulary:
    def test_every_string_of_the_lengths_can_be_drawn(self):
        words, weights = make_vocabulary(0, size=144, min_len=2, max_len=2)
        assert sorted(words) == ["".join(pair) for pair in product(DEFAULT_ALPHABET, repeat=2)]
        assert len(weights) == 144

    @pytest.mark.parametrize("alphabet, size, room", [(DEFAULT_ALPHABET, 145, 144), ("aab", 5, 4)])
    def test_more_words_than_distinct_strings_rejected(self, alphabet, size, room):
        # the draw used to run forever; a repeated letter adds no string
        with pytest.raises(DataError, match=f"only {room} distinct words of 2 to 2 letters over .* {size} asked for"):
            make_vocabulary(0, size=size, alphabet=alphabet, min_len=2, max_len=2)
        assert len(set(make_vocabulary(0, size=room, alphabet=alphabet, min_len=2, max_len=2)[0])) == room


class TestAffixedLexicon:
    @pytest.mark.parametrize("stems, suffixes", [(20, 4), (80, 5), (40, 12)])
    @pytest.mark.parametrize("seed", range(8))
    def test_greedy_parse_is_each_word_stem_and_suffix(self, seed, stems, suffixes):
        # what the draws' rules guarantee with no check of the parse itself: no
        # suffix ends another, no stem ends with a suffix, stems have 4 to 6
        # letters against a stem floor of 3, and there are no prefixes
        lexicon, inventory = make_affixed_lexicon(seed, stems=stems, suffixes=suffixes)
        parses = [greedy_parse(word, inventory) for word in lexicon.entries]
        assert all(len(parse) == 2 and parse[1] in inventory.suffixes for parse in parses)
        drawn = {stem for stem, _ in parses}
        assert len(drawn) == stems and all(4 <= len(stem) <= 6 for stem in drawn)
        assert sorted(parses) == sorted(product(drawn, inventory.suffixes))

    def test_counts_beyond_what_the_alphabet_admits_rejected(self):
        # the suffix draw stops once no string of 2 or 3 letters is left that
        # neither ends a drawn suffix nor ends with one, where it used to draw
        # forever; such a set leaves no stem either, which stops the stem draw
        with pytest.raises(DataError, match=r"only \d+ of 2000 suffixes drawn: no admissible one is left") as caught:
            make_affixed_lexicon(0, stems=1, suffixes=2000)
        drawn = int(caught.value.args[0].split()[1])
        lexicon, inventory = make_affixed_lexicon(0, stems=0, suffixes=drawn)  # the same draws, as far as they got
        kept = inventory.suffixes
        assert len(kept) == drawn and not lexicon.entries
        endings = {s[-k:] for s in kept for k in (2, 3)}  # a string of 2 or 3 letters that a suffix ends with
        strings = ("".join(letters) for k in (2, 3) for letters in product(DEFAULT_ALPHABET, repeat=k))
        assert not [c for c in strings if not c.endswith(tuple(kept)) and c not in endings]
        with pytest.raises(DataError, match="only 0 strings of 4 to 6 letters end with no suffix"):
            make_affixed_lexicon(0, stems=1, suffixes=drawn)
