import random
import re
import tracemalloc
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from tlab.corpus import DataError
from tlab.ngram import (
    ModelFormatError,
    build_model,
    load_model,
    prune,
    save_model,
)
from tlab.segmenter import MODES, freedom
from tlab.synth import make_segmented_corpus, make_vocabulary

import reference
from bruteforce import BfFormatError, bf_load_model, bf_model_text
from strategies import corpora_with_weights, model_of, small_lines, tops, view_of, weights_for


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
        assert view_of(m, 1).degrees == {"fwd": {"a": 1}, "bwd": {"b": 1}}

    def test_line_weight(self):
        m = model_of(["ab"], 1, weights=[5])
        assert m.windows[1]["ab"] == 5

    def test_two_line_enumeration(self):
        # derived by enumerating every window of "abc" and "abd"
        m = model_of(["abc", "abd"], 2)
        assert m.windows[1] == {"ab": 2, "bc": 1, "bd": 1}
        assert m.windows[2] == {"abc": 1, "abd": 1}
        assert view_of(m, 1).degrees == {"fwd": {"a": 1, "b": 2}, "bwd": {"b": 1, "c": 1, "d": 1}}
        assert view_of(m, 2).degrees["bwd"] == {"bc": 1, "bd": 1}
        assert view_of(m, 2).degrees["fwd"].get("ab", 0) == 2

    def test_windows_do_not_cross_lines(self):
        m = model_of(["ab", "cd"], 1)
        assert m.windows[1] == {"ab": 1, "cd": 1}  # "b" has no in-line successor
        assert "b" not in view_of(m, 1).degrees["fwd"]

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
            windows = m.windows.get(n, {})
            assert sum(windows.values()) == expected
            # every distinct window is one edge in each direction
            degrees = view_of(m, n).degrees
            assert sum(degrees["fwd"].values()) == sum(degrees["bwd"].values()) == len(windows)

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
        # only the orders that have a window get a table
        assert sorted(m.windows) == [n for n in range(1, n_max + 1) if reference.window_counts(lines, n + 1, weights)]
        for n in range(1, n_max + 1):
            windows = reference.window_counts(lines, n + 1, weights)
            assert m.windows.get(n, {}) == windows
            view = view_of(m, n)
            for direction in ("fwd", "bwd"):
                degrees = reference.degrees(windows, direction, 0)
                for gram in view.degrees[direction]:
                    assert view.degrees[direction].get(gram, 0) == degrees.get(gram, 0)
                assert tops(view)[direction] == max(degrees.values(), default=0)

    def test_huge_order_bound_allocates_in_proportion_to_the_lines(self):
        lines = ("abc", "abd", "x y", "b")
        peak = traced_peak(lambda: model_of(lines, 10**9))
        assert peak < 2**20
        m = model_of(lines, 10**9)
        assert m == model_of(lines, 2)._replace(n_max=10**9)
        assert m.windows.keys() == {1, 2}


class TestDerivedTables:
    def test_no_table_derived_until_read(self, tmp_path):
        # a model holds its window tables only; a view derives one order's
        # degree tables, for both directions of a union view, when it is asked for
        m = model_of(["abc", "abd", "abd"], 3)
        save_model(m, tmp_path / "m.tsv")
        for model in (m, load_model(tmp_path / "m.tsv")):
            assert model._fields == ("n_max", "windows")
        view = view_of(m, 2)
        assert view.n == 2
        assert view.degrees.keys() == view.rows.keys() == {"fwd", "bwd"}
        assert all(len(gram) == 2 for table in view.degrees.values() for gram in table)
        assert tops(view)["bwd"] == 1
        assert view.degrees["fwd"].get("ab", 0) == 2

    def test_unknown_direction_is_a_missing_key(self):
        m = model_of(["ab"], 1)
        with pytest.raises(KeyError):
            view_of(m, 1).degrees["sideways"]
        with pytest.raises(DataError, match="order 2 outside the model's range 1..1"):
            view_of(m, 2)


class TestAddition:
    @given(corpora_with_weights(), st.integers(min_value=0, max_value=8))
    def test_sum_of_parts_is_model_of_whole(self, lines_weights, cut):
        # window counts add up over a split of the lines, as the word grid's
        # full-train tables are summed from its two halves
        lines, weights = lines_weights
        cut = min(cut, len(lines))
        whole = model_of(lines, 3, weights=weights)
        part_a = model_of(lines[:cut], 3, weights=weights[:cut]).windows
        part_b = model_of(lines[cut:], 3, weights=weights[cut:]).windows
        parts = {n: Counter(part_a.get(n, {})) + Counter(part_b.get(n, {})) for n in part_a.keys() | part_b.keys()}
        assert parts == whole.windows
        for n in (1, 2, 3):
            assert freedom(n, parts.get(n, {}), (0.5,), ("union",)) == view_of(whole, n)


class TestPrune:
    def test_zero_is_identity(self):
        m = model_of(["abc", "abd"], 2)
        for table in m.windows.values():
            assert prune(table, 0) is table

    def test_drops_low_edges(self):
        m = model_of(["ab", "ab", "ab", "ac"], 1)
        assert m.windows[1] == {"ab": 3, "ac": 1}
        assert prune(m.windows[1], 2) == {"ab": 3}
        assert view_of(m, 1, 2).degrees["fwd"].get("a", 0) == 1

    def test_drops_edgeless_grams(self):
        m = model_of(["abc", "abd"], 1)
        assert prune(m.windows[1], 2) == {"ab": 2}
        pruned = view_of(m, 1, 2)
        assert "b" not in pruned.degrees["fwd"]
        assert pruned.degrees["fwd"].get("b", 0) == 0

    def test_negative_threshold_rejected(self):
        with pytest.raises(DataError, match="prune threshold must be >= 0, got -1"):
            prune({"ab": 1}, -1)

    @given(corpora_with_weights(), st.integers(min_value=0, max_value=6))
    def test_monotone_and_idempotent(self, lines_weights, threshold):
        lines, weights = lines_weights
        m = model_of(lines, 2, weights=weights)
        for n in (1, 2):
            table = m.windows.get(n, {})
            pruned = prune(table, threshold)
            assert prune(pruned, threshold) == pruned
            assert freedom(n, prune(pruned, threshold), (0.5,), MODES) == freedom(n, pruned, (0.5,), MODES)
            full, kept = view_of(m, n), view_of(m, n, threshold)
            windows = reference.window_counts(lines, n + 1, weights)
            for direction in ("fwd", "bwd"):
                assert tops(kept)[direction] <= tops(full)[direction]
                degrees = reference.degrees(windows, direction, threshold)
                for gram in full.degrees[direction]:
                    assert kept.degrees[direction].get(gram, 0) <= full.degrees[direction].get(gram, 0)
                    assert kept.degrees[direction].get(gram, 0) == degrees.get(gram, 0)


class TestFreedom:
    def test_distinct_successors(self):
        m = model_of(["abc", "abd"], 1)
        assert view_of(m, 1).degrees["fwd"].get("b", 0) == 2

    def test_absent_gram(self):
        m = model_of(["abc"], 1)
        assert view_of(m, 1).degrees["fwd"].get("z", 0) == 0

    def test_order_above_n_max(self):
        m = model_of(["abc"], 1)
        with pytest.raises(DataError):
            view_of(m, 2)

    def test_max_freedom_examples(self):
        assert tops(view_of(model_of(["ab"], 1), 1))["fwd"] == 1
        assert tops(view_of(model_of([], 1), 1)) == {"fwd": 0, "bwd": 0}
        assert tops(view_of(model_of(["abc", "abd", "abe"], 2), 2)) == {"fwd": 3, "bwd": 1}
        # an order below n_max that no line is long enough for
        assert tops(view_of(model_of(["ab"], 3), 3)) == {"fwd": 0, "bwd": 0}

    @given(corpora_with_weights(max_lines=6))
    def test_freedom_bounded_by_max(self, lines_weights):
        lines, weights = lines_weights
        m = model_of(lines, 2, weights=weights)
        for n in (1, 2):
            view = view_of(m, n)
            for direction in ("fwd", "bwd"):
                top = tops(view)[direction]
                assert top == max(view.degrees[direction].values(), default=0)
                for gram in view.degrees[direction]:
                    assert view.degrees[direction].get(gram, 0) <= top


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
        path.write_text("tlab-model v9 n_max=2\n", encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_truncated_record_rejected(self, tmp_path):
        path = tmp_path / "trunc.tsv"
        path.write_text("tlab-model v1 n_max=1\nf\t1\ta\n", encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_control_characters_escaped(self, tmp_path):
        m = model_of(["a\tb", "a\tc"], 2)
        path = tmp_path / "tab.tsv"
        save_model(m, path)
        text = path.read_text(encoding="utf-8")
        assert "\t".join(["f", "2", "x6109", "b", "1"]) in text  # "a\t" as hex
        assert load_model(path) == m

    def test_literal_hex_like_grams_escaped(self, tmp_path):
        m = model_of(["ab x0a cd"], 3)
        path = tmp_path / "x.tsv"
        save_model(m, path)
        text = path.read_text(encoding="utf-8")
        assert "\t".join(["f", "3", "x783061", " ", "1"]) in text  # "x0a" as hex
        assert "\t".join(["f", "1", " ", "x78", "1"]) in text  # "x" as hex
        assert load_model(path) == m

    def test_unmirrored_backward_records_rejected(self, tmp_path):
        path = tmp_path / "half.tsv"
        path.write_text("tlab-model v1 n_max=1\nb\t1\tb\ta\t1\nf\t1\ta\tb\t2\n", encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_model(path)
        path.write_text("tlab-model v1 n_max=1\nf\t1\ta\tb\t1\n", encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_duplicate_record_rejected(self, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text("tlab-model v1 n_max=1\nb\t1\tb\ta\t1\nf\t1\ta\tb\t1\nf\t1\ta\tb\t1\n", encoding="utf-8")
        with pytest.raises(ModelFormatError, match=r"dup\.tsv:4: duplicate record"):
            load_model(path)

    def test_conflicting_duplicate_record_rejected(self, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text("tlab-model v1 n_max=1\nf\t1\ta\tb\t1\nf\t1\ta\tb\t2\nb\t1\tb\ta\t2\n", encoding="utf-8")
        with pytest.raises(ModelFormatError, match=r"dup\.tsv:3: duplicate record"):
            load_model(path)
        path.write_text("tlab-model v1 n_max=1\nb\t1\tb\ta\t1\nb\t1\tb\ta\t2\nf\t1\ta\tb\t2\n", encoding="utf-8")
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
        path.write_text("tlab-model v1 n_max=1\n" + body, encoding="utf-8")
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
        path.write_text("tlab-model v1 n_max=1\nb\t01\tb\ta\t1\nf\t1\ta\tb\t1\n", encoding="utf-8")
        assert load_model(path) == model_of(["ab"], 1)
        path.write_text("tlab-model v1 n_max=1\nb\t2\tbc\ta\t1\n", encoding="utf-8")
        with pytest.raises(ModelFormatError, match="order 2 outside"):
            load_model(path)
        path.write_text("tlab-model v1 n_max=1\nb\tone\tb\ta\t1\n", encoding="utf-8")
        with pytest.raises(ModelFormatError, match="non-integer"):
            load_model(path)

    def test_save_peak_memory_under_twice_the_file(self, tmp_path):
        m = synth_model()
        path = tmp_path / "m.tsv"
        peak = traced_peak(lambda: save_model(m, path))
        assert peak < 2 * path.stat().st_size

    def test_huge_order_bound_loads_in_proportion_to_the_file(self, tmp_path):
        path = tmp_path / "huge.tsv"
        path.write_text("tlab-model v1 n_max=1000000000\nb\t1\tb\ta\t1\nf\t1\ta\tb\t1\n", encoding="utf-8")
        peak = traced_peak(lambda: load_model(path))
        assert peak < 2**20
        assert load_model(path) == (10**9, {1: {"ab": 1}})

    def test_orders_of_the_two_directions_must_match(self, tmp_path):
        path = tmp_path / "orders.tsv"
        # order 2 mirrors, and order 1 has backward records only
        path.write_text("tlab-model v1 n_max=2\nb\t1\tb\ta\t1\nb\t2\tbc\ta\t1\nf\t2\tab\tc\t1\n", encoding="utf-8")
        with pytest.raises(ModelFormatError, match="do not mirror"):
            load_model(path)

    def test_load_peak_memory_under_four_times_the_file(self, tmp_path):
        # one window table is filled, not a second one per record tag to compare
        path = tmp_path / "m.tsv"
        save_model(synth_model(), path)
        peak = traced_peak(lambda: load_model(path))
        assert peak < 4 * path.stat().st_size

    @settings(max_examples=300)
    @given(
        st.lists(st.text(alphabet="abx\t", min_size=1, max_size=6), min_size=1, max_size=5),
        st.integers(min_value=1, max_value=3),
        st.sampled_from(["as saved", "f first", "shuffled"]),
        st.sampled_from([None, "repeat", "recount", "drop"]),
        st.data(),
    )
    def test_any_record_order_loads_as_the_reference_reads_it(
        self, tmp_path_factory, lines, n_max, order, change, data
    ):
        # a saved model's records in some order, then changed in at most one
        # way: the model, or the error message with its line, must be the
        # reference reader's
        path = tmp_path_factory.mktemp("order") / "m.tsv"
        save_model(model_of(lines, n_max), path)
        header, *records = path.read_text(encoding="utf-8").splitlines(keepends=True)
        if order == "f first":
            records.sort(key=lambda record: record[0] == "b")
        elif order == "shuffled":
            records = data.draw(st.permutations(records))
        if records and change is not None:
            i = data.draw(st.integers(min_value=0, max_value=len(records) - 1))
            if change == "repeat":
                records.insert(data.draw(st.integers(min_value=0, max_value=len(records))), records[i])
            elif change == "recount":
                *fields, count = records[i].split("\t")
                new_count = data.draw(st.integers(min_value=0, max_value=9).filter(lambda c: c != int(count)))
                records[i] = "\t".join([*fields, f"{new_count}\n"])
            else:
                del records[i]
        path.write_text(header + "".join(records), encoding="utf-8")
        try:
            expected = bf_load_model(path)
        except BfFormatError as exc:
            with pytest.raises(ModelFormatError) as raised:
                load_model(path)
            assert str(raised.value) == str(exc)
        else:
            assert load_model(path) == expected

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

    @given(
        st.one_of(
            st.lists(st.text(alphabet="abx\t\r ", min_size=1, max_size=8), min_size=1, max_size=6),
            st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=6),
        ).flatmap(lambda ls: st.tuples(st.just(ls), st.none() | weights_for(ls))),
        st.integers(min_value=1, max_value=4),
    )
    def test_saves_the_bytes_of_a_record_by_record_writer(self, tmp_path_factory, lines_weights, n_max):
        # save_model decides per order whether any field may need escaping;
        # the bytes must be those of escaping each record's fields on its own
        lines, weights = lines_weights
        path = tmp_path_factory.mktemp("bytes") / "m.tsv"
        save_model(model_of(lines, n_max, weights=weights), path)
        expected = bf_model_text(lines, weights or [1] * len(lines), n_max)
        assert path.read_bytes() == expected.encode("utf-8")

    @given(small_lines(alphabet="ab\t\n x0", max_lines=6, max_len=6))
    def test_round_trip_with_escapes(self, tmp_path_factory, lines):
        m = model_of(lines, 2)
        path = tmp_path_factory.mktemp("esc") / "m.tsv"
        save_model(m, path)
        assert load_model(path) == m
