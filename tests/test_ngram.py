import random
import re
import tracemalloc

import hypothesis.strategies as st
import pytest
from hypothesis import given

from tlab.corpus import TextCorpus
from tlab.ngram import (
    ModelFormatError,
    build_model,
    load_model,
    max_freedom,
    prune,
    save_model,
)
from tlab.synth import make_segmented_corpus, make_vocabulary

from bruteforce import bf_freedom, bf_max_freedom, window_counts
from strategies import corpora_with_weights, small_lines, weights_for


def model_of(lines, n_max=2, weights=None):
    return build_model(TextCorpus(tuple(lines), "t"), n_max, line_weights=weights)


def synth_model():
    """A seeded n_max 7 model of unspaced synthetic text, about 0.68 MB on file."""
    words, weights = make_vocabulary(7)
    corpus, _ = make_segmented_corpus(words, weights, 7, lines=600, spaces=False)
    return build_model(corpus, 7)


def traced_peak(call):
    """Peak bytes that ``call()`` allocates, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
        assert m.degrees[2, "forward"].get("ab", 0) == 2

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
                    assert m.degrees[n, direction].get(gram, 0) == bf_freedom(lines, weights, gram, direction)
                assert max_freedom(m, n, direction) == bf_max_freedom(lines, weights, n, direction)


class TestDerivedTables:
    def test_no_table_derived_until_read(self, tmp_path):
        m = model_of(["abc", "abd", "abd"], 3)
        save_model(m, tmp_path / "m.tsv")
        for model in (m, load_model(tmp_path / "m.tsv"), prune(m, 2), m + m):
            assert model.degrees == {} and model.max_degrees == {}
        assert max_freedom(m, 2, "backward") == 1
        assert set(m.degrees) == set(m.max_degrees) == {(2, "backward")}
        assert m.degrees[2, "forward"].get("ab", 0) == 2
        assert set(m.degrees) == {(2, "backward"), (2, "forward")}

    def test_unknown_direction_is_a_missing_key(self):
        m = model_of(["ab"], 1)
        with pytest.raises(KeyError):
            m.degrees[1, "sideways"]
        with pytest.raises(KeyError):
            m.degrees[2, "forward"]
        assert m.degrees == {}


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
        for n in (1, 2, 3):
            for direction in ("forward", "backward"):
                assert parts.degrees[n, direction] == whole.degrees[n, direction]
                assert max_freedom(parts, n, direction) == max_freedom(whole, n, direction)


class TestPrune:
    def test_zero_is_identity(self):
        m = model_of(["abc", "abd"], 2)
        assert prune(m, 0) == m

    def test_drops_low_edges(self):
        m = model_of(["ab", "ab", "ab", "ac"], 1)
        assert m.windows[1] == {"ab": 3, "ac": 1}
        pruned = prune(m, 2)
        assert pruned.windows[1] == {"ab": 3}
        assert pruned.degrees[1, "forward"].get("a", 0) == 1

    def test_drops_edgeless_grams(self):
        m = model_of(["abc", "abd"], 1)
        pruned = prune(m, 2)
        assert pruned.windows[1] == {"ab": 2}
        assert "b" not in pruned.degrees[1, "forward"]
        assert pruned.degrees[1, "forward"].get("b", 0) == 0

    @given(corpora_with_weights(), st.integers(min_value=0, max_value=6))
    def test_monotone_and_idempotent(self, lines_weights, threshold):
        lines, weights = lines_weights
        m = model_of(lines, 2, weights=weights)
        pruned = prune(m, threshold)
        assert prune(pruned, threshold) == pruned
        for n in (1, 2):
            for direction in ("forward", "backward"):
                for gram in m.degrees[n, direction]:
                    assert pruned.degrees[n, direction].get(gram, 0) <= m.degrees[n, direction].get(gram, 0)


class TestFreedom:
    def test_distinct_successors(self):
        m = model_of(["abc", "abd"], 1)
        assert m.degrees[1, "forward"].get("b", 0) == 2

    def test_absent_gram(self):
        m = model_of(["abc"], 1)
        assert m.degrees[1, "forward"].get("z", 0) == 0

    def test_order_above_n_max(self):
        m = model_of(["abc"], 1)
        with pytest.raises(Exception):
            m.degrees[2, "forward"].get("ab", 0)

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
                    assert m.degrees[n, direction].get(gram, 0) <= top


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
        with pytest.raises(ModelFormatError, match=r"empty\.tsv: empty model file$"):
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

    def test_invalid_utf8_reported_first_with_file_offset(self, tmp_path):
        # line 3 repeats line 2, and the bad byte comes after several read chunks' worth of records
        path = tmp_path / "bad.tsv"
        header = b"tlab-model v1 n_max=1\n"
        path.write_bytes(header + b"f\t1\ta\tb\t1\n" * 1000 + b"\xff\n")
        with pytest.raises(ModelFormatError, match="invalid UTF-8 at byte offset 10022$"):
            load_model(path)

    def test_crlf_header_rejected(self, tmp_path):
        path = tmp_path / "crlf.tsv"
        path.write_bytes(b"tlab-model v1 n_max=1\r\nb\t1\tb\ta\t1\r\nf\t1\ta\tb\t1\r\n")
        with pytest.raises(ModelFormatError, match=re.escape("bad header 'tlab-model v1 n_max=1\\r'")):
            load_model(path)

    @pytest.mark.parametrize(
        "body, lineno",
        [("b\t1\tb\ta\t1\n\nf\t1\ta\tb\t1\n", 3), ("b\t1\tb\ta\t1\nf\t1\ta\tb\t1\n\n", 4)],
    )
    def test_blank_line_rejected(self, tmp_path, body, lineno):
        path = tmp_path / "blank.tsv"
        path.write_text("tlab-model v1 n_max=1\n" + body)
        with pytest.raises(ModelFormatError, match=rf":{lineno}: expected 5 tab-separated fields, got 1$"):
            load_model(path)

    def test_missing_final_newline_and_record_cr_accepted(self, tmp_path):
        path = tmp_path / "edge.tsv"
        path.write_bytes(b"tlab-model v1 n_max=1\nb\t1\tb\ta\t1")
        with pytest.raises(ModelFormatError, match="do not mirror"):
            load_model(path)
        path.write_bytes(b"tlab-model v1 n_max=1\nb\t1\tb\ta\t1\nf\t1\ta\tb\t1")
        assert load_model(path) == model_of(["ab"], 1)
        # the count field is read as an integer, which ignores a trailing CR
        path.write_bytes(b"tlab-model v1 n_max=1\nb\t1\tb\ta\t1\r\nf\t1\ta\tb\t1\r\n")
        assert load_model(path) == model_of(["ab"], 1)

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

    def test_save_peak_memory_under_twice_the_file(self, tmp_path):
        m = synth_model()
        path = tmp_path / "m.tsv"
        peak = traced_peak(lambda: save_model(m, path))
        assert peak < 2 * path.stat().st_size

    def test_load_peak_memory_under_ten_times_the_file(self, tmp_path):
        path = tmp_path / "m.tsv"
        save_model(synth_model(), path)
        peak = traced_peak(lambda: load_model(path))
        assert peak < 10 * path.stat().st_size

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
