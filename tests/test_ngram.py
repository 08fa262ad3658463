import random

import hypothesis.strategies as st
import pytest
from hypothesis import given

from tlab.corpus import TextCorpus
from tlab.ngram import (
    ModelFormatError,
    build_model,
    freedom,
    load_model,
    max_freedom,
    prune,
    save_model,
)

from bruteforce import bf_freedom, bf_max_freedom, window_counts
from strategies import corpora_with_weights, small_lines, weights_for


def model_of(lines, n_max=2, weights=None):
    return build_model(TextCorpus(tuple(lines), "t"), n_max, line_weights=weights)


class TestBuildModel:
    def test_single_bigram_line(self):
        m = model_of(["ab"], 1)
        assert m.windows[1] == {"ab": 1}
        assert m.degrees[1, "forward"] == {"a": 1}
        assert m.degrees[1, "backward"] == {"b": 1}

    def test_line_weight(self):
        m = model_of(["ab"], 1, weights=[5])
        assert m.windows[1]["ab"] == 5

    def test_two_line_enumeration(self):
        # derived by enumerating every window of "abc" and "abd"
        m = model_of(["abc", "abd"], 2)
        assert m.windows[1] == {"ab": 2, "bc": 1, "bd": 1}
        assert m.windows[2] == {"abc": 1, "abd": 1}
        assert m.degrees[1, "forward"] == {"a": 1, "b": 2}
        assert m.degrees[1, "backward"] == {"b": 1, "c": 1, "d": 1}
        assert m.degrees[2, "backward"] == {"bc": 1, "bd": 1}
        assert freedom(m, "ab", "forward") == 2

    def test_windows_do_not_cross_lines(self):
        m = model_of(["ab", "cd"], 1)
        assert m.windows[1] == {"ab": 1, "cd": 1}  # "b" has no in-line successor
        assert "b" not in m.degrees[1, "forward"]

    def test_whitespace_is_ordinary(self):
        m = model_of(["a b"], 1)
        assert m.windows[1] == {"a ": 1, " b": 1}

    def test_bad_args(self):
        with pytest.raises(Exception):
            model_of(["ab"], 0)
        with pytest.raises(Exception):
            model_of(["ab"], 1, weights=[1, 2])
        with pytest.raises(Exception):
            model_of(["ab"], 1, weights=[0])

    @given(corpora_with_weights())
    def test_count_conservation(self, lines_weights):
        lines, weights = lines_weights
        n_max = 3
        m = model_of(lines, n_max, weights=weights)
        for n in range(1, n_max + 1):
            expected = sum(w * max(0, len(l) - n) for l, w in zip(lines, weights))
            assert sum(m.windows[n].values()) == expected
            # every distinct window is one edge in each direction
            assert sum(m.degrees[n, "forward"].values()) == len(m.windows[n])
            assert sum(m.degrees[n, "backward"].values()) == len(m.windows[n])

    @given(small_lines(), st.integers(min_value=0, max_value=2**32))
    def test_line_order_independent(self, lines, seed):
        shuffled = list(lines)
        random.Random(seed).shuffle(shuffled)
        assert model_of(lines, 2) == model_of(shuffled, 2)

    @given(
        st.integers(min_value=1, max_value=6).flatmap(
            lambda n_max: st.tuples(
                st.just(n_max),
                # lines no longer than n_max + 1 have no top-order window, only tails
                corpora_with_weights(alphabet="abc", max_lines=8, max_len=n_max + 1)
                | corpora_with_weights(max_lines=8, max_len=2 * n_max + 2),
            )
        )
    )
    def test_matches_bruteforce_counts(self, case):
        n_max, (lines, weights) = case
        m = model_of(lines, n_max, weights=weights)
        assert sorted(m.windows) == list(range(1, n_max + 1))
        for n in range(1, n_max + 1):
            forward_pairs = window_counts(lines, weights, n, "forward")
            assert m.windows[n] == {g + ch: c for (g, ch), c in forward_pairs.items()}
            for direction in ("forward", "backward"):
                for gram in m.degrees[n, direction]:
                    assert freedom(m, gram, direction) == bf_freedom(lines, weights, gram, direction)
                assert max_freedom(m, n, direction) == bf_max_freedom(lines, weights, n, direction)


class TestAddition:
    @given(corpora_with_weights(), st.integers(min_value=0, max_value=8))
    def test_sum_of_parts_is_model_of_whole(self, lines_weights, cut):
        lines, weights = lines_weights
        cut = min(cut, len(lines))
        whole = model_of(lines, 3, weights=weights)
        parts = model_of(lines[:cut], 3, weights=weights[:cut]) + model_of(
            lines[cut:], 3, weights=weights[cut:]
        )
        assert parts == whole
        assert parts.max_degrees == whole.max_degrees


class TestPrune:
    def test_zero_is_identity(self):
        m = model_of(["abc", "abd"], 2)
        assert prune(m, 0) == m

    def test_drops_low_edges(self):
        m = model_of(["ab", "ab", "ab", "ac"], 1)
        assert m.windows[1] == {"ab": 3, "ac": 1}
        pruned = prune(m, 2)
        assert pruned.windows[1] == {"ab": 3}
        assert freedom(pruned, "a", "forward") == 1

    def test_drops_edgeless_grams(self):
        m = model_of(["abc", "abd"], 1)
        pruned = prune(m, 2)
        assert pruned.windows[1] == {"ab": 2}
        assert "b" not in pruned.degrees[1, "forward"]
        assert freedom(pruned, "b", "forward") == 0

    @given(corpora_with_weights(), st.integers(min_value=0, max_value=6))
    def test_monotone_and_idempotent(self, lines_weights, threshold):
        lines, weights = lines_weights
        m = model_of(lines, 2, weights=weights)
        pruned = prune(m, threshold)
        assert prune(pruned, threshold) == pruned
        for n in (1, 2):
            for direction in ("forward", "backward"):
                for gram in m.degrees[n, direction]:
                    assert freedom(pruned, gram, direction) <= freedom(m, gram, direction)


class TestFreedom:
    def test_distinct_successors(self):
        m = model_of(["abc", "abd"], 1)
        assert freedom(m, "b", "forward") == 2

    def test_absent_gram(self):
        m = model_of(["abc"], 1)
        assert freedom(m, "z", "forward") == 0

    def test_order_above_n_max(self):
        m = model_of(["abc"], 1)
        with pytest.raises(Exception):
            freedom(m, "ab", "forward")

    def test_max_freedom_examples(self):
        assert max_freedom(model_of(["ab"], 1), 1, "forward") == 1
        assert max_freedom(model_of([], 1), 1, "forward") == 0
        assert max_freedom(model_of(["abc", "abd", "abe"], 2), 2, "forward") == 3

    @given(corpora_with_weights(max_lines=6))
    def test_freedom_bounded_by_max(self, lines_weights):
        lines, weights = lines_weights
        m = model_of(lines, 2, weights=weights)
        for direction in ("forward", "backward"):
            for n in (1, 2):
                top = max_freedom(m, n, direction)
                for gram in m.degrees[n, direction]:
                    assert freedom(m, gram, direction) <= top


class TestPersistence:
    def test_round_trip(self, tmp_path):
        m = model_of(["abc", "abd"], 2)
        path = tmp_path / "m.tsv"
        save_model(m, path)
        assert load_model(path) == m

    def test_saves_byte_identical(self, tmp_path):
        m = model_of(["abc", "abd"], 2)
        p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        save_model(m, p1)
        save_model(m, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_bytes(b"")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("tlab-model v9 n_max=2\n")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_truncated_record_rejected(self, tmp_path):
        path = tmp_path / "trunc.tsv"
        path.write_text("tlab-model v1 n_max=1\nf\t1\ta\n")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_control_characters_escaped(self, tmp_path):
        m = model_of(["a\tb", "a\tc"], 2)
        path = tmp_path / "tab.tsv"
        save_model(m, path)
        text = path.read_text()
        assert "\t".join(["f", "2", "x6109", "b", "1"]) in text  # "a\t" as hex
        assert load_model(path) == m

    def test_literal_hex_like_grams_escaped(self, tmp_path):
        m = model_of(["ab x0a cd"], 3)
        path = tmp_path / "x.tsv"
        save_model(m, path)
        text = path.read_text()
        assert "\t".join(["f", "3", "x783061", " ", "1"]) in text  # "x0a" as hex
        assert "\t".join(["f", "1", " ", "x78", "1"]) in text  # "x" as hex
        assert load_model(path) == m

    def test_unmirrored_backward_records_rejected(self, tmp_path):
        path = tmp_path / "half.tsv"
        path.write_text("tlab-model v1 n_max=1\nb\t1\tb\ta\t1\nf\t1\ta\tb\t2\n")
        with pytest.raises(ModelFormatError):
            load_model(path)
        path.write_text("tlab-model v1 n_max=1\nf\t1\ta\tb\t1\n")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_duplicate_record_rejected(self, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text("tlab-model v1 n_max=1\nb\t1\tb\ta\t1\nf\t1\ta\tb\t1\nf\t1\ta\tb\t1\n")
        with pytest.raises(ModelFormatError, match=r"dup\.tsv:4: duplicate record"):
            load_model(path)

    def test_conflicting_duplicate_record_rejected(self, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text("tlab-model v1 n_max=1\nf\t1\ta\tb\t1\nf\t1\ta\tb\t2\nb\t1\tb\ta\t2\n")
        with pytest.raises(ModelFormatError, match=r"dup\.tsv:3: duplicate record"):
            load_model(path)
        path.write_text("tlab-model v1 n_max=1\nb\t1\tb\ta\t1\nb\t1\tb\ta\t2\nf\t1\ta\tb\t2\n")
        with pytest.raises(ModelFormatError, match=r"dup\.tsv:3: duplicate record"):
            load_model(path)

    def test_order_field_read_as_integer(self, tmp_path):
        path = tmp_path / "pad.tsv"
        path.write_text("tlab-model v1 n_max=1\nb\t01\tb\ta\t1\nf\t1\ta\tb\t1\n")
        assert load_model(path) == model_of(["ab"], 1)
        path.write_text("tlab-model v1 n_max=1\nb\t2\tbc\ta\t1\n")
        with pytest.raises(ModelFormatError, match="order 2 outside"):
            load_model(path)
        path.write_text("tlab-model v1 n_max=1\nb\tone\tb\ta\t1\n")
        with pytest.raises(ModelFormatError, match="non-integer"):
            load_model(path)

    @given(
        st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=6).flatmap(
            lambda ls: st.tuples(st.just(ls), st.none() | weights_for(ls))
        ),
        st.integers(min_value=1, max_value=4),
    )
    def test_round_trip_any_unicode(self, tmp_path_factory, lines_weights, n_max):
        # st.text() draws the full range: astral scalars, "x", tab, CR, LF, backslash
        lines, weights = lines_weights
        m = model_of(lines, n_max, weights=weights)
        directory = tmp_path_factory.mktemp("uni")
        save_model(m, directory / "a.tsv")
        save_model(m, directory / "b.tsv")
        assert (directory / "a.tsv").read_bytes() == (directory / "b.tsv").read_bytes()
        assert load_model(directory / "a.tsv") == m

    @given(small_lines(alphabet="ab\t\n x0", max_lines=6, max_len=6))
    def test_round_trip_with_escapes(self, tmp_path_factory, lines):
        m = model_of(lines, 2)
        path = tmp_path_factory.mktemp("esc") / "m.tsv"
        save_model(m, path)
        assert load_model(path) == m
