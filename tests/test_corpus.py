from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import given

from tlab.corpus import (
    DataError,
    TextCorpus,
    escape_token,
    format_segmented,
    load_gold,
    load_segmented,
    load_text,
    sample_indices,
    save_segmented,
    save_text,
    split_even_odd,
)

from strategies import small_lines


def write(tmp_path, data, name="c.txt"):
    p = tmp_path / name
    p.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
    return p


class TestLoadText:
    def test_drops_empty_lines(self, tmp_path):
        corpus = load_text(write(tmp_path, "ab\n\ncd\n"))
        assert corpus.lines == ("ab", "cd")

    def test_empty_file(self, tmp_path):
        assert load_text(write(tmp_path, "")).lines == ()

    def test_crlf_terminators(self, tmp_path):
        assert load_text(write(tmp_path, "ab\r\ncd")).lines == ("ab", "cd")

    def test_preserves_case_and_punctuation(self, tmp_path):
        corpus = load_text(write(tmp_path, "Ab, c!\n  dd  \n"))
        assert corpus.lines == ("Ab, c!", "  dd  ")

    def test_invalid_utf8_reports_offset(self, tmp_path):
        path = write(tmp_path, b"ab\n\xff\xfe")
        with pytest.raises(DataError, match="byte offset 3"):
            load_text(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_text(tmp_path / "nope.txt")


class TestLoadGold:
    def test_whitespace_run_split(self, tmp_path):
        gold = load_gold(write(tmp_path, "ab cd\n  ab   cd \nabc\n"))
        assert gold.lines == (("ab", "cd"), ("ab", "cd"), ("abc",))

    def test_zero_token_lines_counted(self, tmp_path):
        gold = load_gold(write(tmp_path, "a b\n   \n\nc\n"))
        assert gold.lines == (("a", "b"), (), ("c",))

    def test_reads_segmented_escapes(self, tmp_path):
        path = tmp_path / "gold.txt"
        save_segmented([("C:\\dir", "a b"), ("x",)], path)
        assert load_gold(path).lines == (("C:\\dir", "a b"), ("x",))


class TestSplitEvenOdd:
    def test_four_lines(self):
        part_a, part_b = split_even_odd(TextCorpus(("l0", "l1", "l2", "l3")))
        assert part_a.lines == ("l0", "l2")
        assert part_b.lines == ("l1", "l3")

    def test_five_lines(self):
        part_a, part_b = split_even_odd(TextCorpus(("a", "b", "c", "d", "e")))
        assert len(part_a.lines) == 3
        assert len(part_b.lines) == 2

    def test_identical_halves(self):
        part_a, part_b = split_even_odd(TextCorpus(("same", "same")))
        assert part_a.lines == part_b.lines

    def test_too_small(self):
        with pytest.raises(DataError, match="^training corpus has 1 lines; need at least 2 to split$"):
            split_even_odd(TextCorpus(("only",)))

    @given(small_lines())
    def test_union_is_input_multiset(self, lines):
        corpus = TextCorpus(tuple(lines))
        if len(lines) < 2:
            return
        a, b = split_even_odd(corpus)
        assert Counter(a.lines) + Counter(b.lines) == Counter(corpus.lines)


class TestSampleLines:
    LINES = 50

    def test_full_count_returns_corpus(self):
        assert sample_indices(self.LINES, 50, 3) == tuple(range(self.LINES))
        assert sample_indices(self.LINES, 99, 3) == tuple(range(self.LINES))

    def test_deterministic_single(self):
        first = sample_indices(self.LINES, 1, 7)
        assert len(first) == 1
        assert all(sample_indices(self.LINES, 1, 7) == first for _ in range(5))

    def test_keeps_relative_order(self):
        picked = sample_indices(self.LINES, 10, 5)
        assert len(set(picked)) == 10
        assert list(picked) == sorted(picked)

    def test_two_seeds_differ(self):
        # derived check: with 50-choose-10 possibilities two seeds should diverge
        assert sample_indices(self.LINES, 10, 1) != sample_indices(self.LINES, 10, 2)

    @given(st.integers(min_value=1, max_value=50), st.integers(min_value=0, max_value=2**64 - 1))
    def test_pure_function_of_args(self, count, seed):
        assert sample_indices(self.LINES, count, seed) == sample_indices(self.LINES, count, seed)


# any scalar UTF-8 can encode, with tab, CR, NEL and the line separator drawn often
LINE_SCALARS = st.characters(codec="utf-8") | st.sampled_from("\t\r\x85\u2028")


class TestRoundTrips:
    @given(st.lists(st.text(LINE_SCALARS, max_size=8).filter(lambda line: "\n" not in line and not line.endswith("\r")),
                    max_size=8))
    def test_save_load_text(self, tmp_path_factory, lines):
        # LF or CRLF ends a line, and nothing else does: every line that holds
        # no LF and does not end in CR reads back as written
        corpus = TextCorpus(tuple(lines))
        path = tmp_path_factory.mktemp("rt") / "c.txt"
        save_text(corpus, path)
        reloaded = load_text(path)
        expected = tuple(l for l in lines if l)  # loader drops empties by contract
        assert reloaded.lines == expected

    def test_a_trailing_cr_is_read_as_part_of_the_terminator(self, tmp_path):
        path = tmp_path / "c.txt"
        save_text(TextCorpus(("ab\r", "c\rd", "\r")), path)
        assert load_text(path).lines == ("ab", "c\rd")

    def test_segmented_round_trip_escapes_whitespace(self, tmp_path):
        path = tmp_path / "seg.txt"
        save_segmented([("a", " ", "b c"), ("xy",)], path)
        assert path.read_text(encoding="utf-8") == "a \\s b\\sc\nxy\n"
        back = load_segmented(path)
        assert back.lines == (("a", " ", "b c"), ("xy",))

    def test_segmented_backslash_escape(self, tmp_path):
        path = tmp_path / "seg.txt"
        save_segmented([("C:\\sdir", "a\\")], path)
        assert path.read_text(encoding="utf-8") == "C:\\\\sdir a\\\\\n"
        assert load_segmented(path).lines == (("C:\\sdir", "a\\"),)

    @given(st.lists(st.lists(st.text(alphabet="\\su0aF a\t\r\x0b\x85\u2028\u3000", min_size=1, max_size=6),
                             max_size=4), min_size=1, max_size=4))
    def test_segmented_round_trip_with_backslashes(self, tmp_path_factory, token_lines):
        # a line with no token is drawn too, and must read back as () in its place
        path = tmp_path_factory.mktemp("seg") / "seg.txt"
        save_segmented(token_lines, path)
        assert load_segmented(path).lines == tuple(tuple(tokens) for tokens in token_lines)

    def test_a_line_with_no_token_reads_back_in_place(self, tmp_path):
        path = tmp_path / "seg.txt"
        save_segmented([("a",), (), ("b", "c")], path)
        assert path.read_bytes() == b"a\n \nb c\n"
        assert load_segmented(path).lines == (("a",), (), ("b", "c"))

    def test_segmented_non_space_whitespace_escape(self, tmp_path):
        path = tmp_path / "seg.txt"
        save_segmented([("a\tb", "\u3000", "\\u0020 c")], path)
        assert path.read_text(encoding="utf-8") == "a\\u0009b \\u3000 \\\\u0020\\sc\n"
        assert load_segmented(path).lines == (("a\tb", "\u3000", "\\u0020 c"),)

    @given(st.lists(st.lists(st.text(alphabet="ab \t\u3000\\u0F", max_size=6), max_size=4).map(tuple),
                    max_size=5))
    def test_format_segmented_escapes_as_token_by_token(self, token_lines):
        # the writer escapes only the lines that need it; the bytes must be
        # those of escaping every token; empty token lines and tokens included,
        # a line that would be empty written as one space
        per_token = "".join((" ".join(map(escape_token, tokens)) or " ") + "\n" for tokens in token_lines)
        assert format_segmented(token_lines) == per_token

    def test_every_whitespace_scalar_fits_four_hex_digits(self):
        assert max(c for c in range(0x110000) if chr(c).isspace()) == 0x3000
