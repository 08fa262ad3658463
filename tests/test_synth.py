import pytest

from tlab.synth import make_segmented_corpus, make_vocabulary

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
