import csv
import math

import hypothesis.strategies as st
import pytest
from hypothesis import given

from tlab.corpus import DataError, GoldSegmentation, split_even_odd
from tlab.lab import (
    CSV_HEADER,
    TrialRecord,
    parse_grid_spec,
    pearson,
    run_grid,
    run_morph_grid,
    summarize,
    write_trials_csv,
)
from tlab.metrics import (
    MetricsReport,
    TokenStats,
    anti_entropy,
    boundary_counts,
    boundary_f1,
    compression_factor,
    cross_split_f1,
    f1_score,
    token_stats,
)
from tlab.morphology import (
    AffixInventory,
    FreqLexicon,
    build_morph_model,
    greedy_parse,
    weighted_morph_f1,
)
from tlab.ngram import build_model
from tlab.segmenter import SegmenterParams, segment, segment_corpus
from tlab.synth import make_affixed_lexicon, make_segmented_corpus, make_vocabulary


def tiny_setup(spaces=True, train_lines=60, test_lines=12):
    words, weights = make_vocabulary(5, size=12, min_len=2, max_len=4, alphabet="abcdef")
    train, _ = make_segmented_corpus(words, weights, 11, lines=train_lines, min_words=3, max_words=6, spaces=spaces)
    test, gold = make_segmented_corpus(words, weights, 12, lines=test_lines, min_words=3, max_words=6, spaces=spaces)
    return train, test, gold


class TestParseGridSpec:
    def test_full_syntax(self):
        spec = parse_grid_spec("n=1..3;peak=0:0.4:0.2;prune=0,2;mode=fwd,union")
        assert spec.n_values == (1, 2, 3)
        assert spec.peak_values == (0.0, 0.2, 0.4)
        assert spec.prune_values == (0, 2)
        assert spec.direction_modes == ("forward", "union")

    def test_comma_lists(self):
        spec = parse_grid_spec("n=2,4;peak=0.1,0.9;prune=1;mode=bwd")
        assert spec.n_values == (2, 4)
        assert spec.peak_values == (0.1, 0.9)
        assert spec.direction_modes == ("backward",)

    def test_missing_axis_rejected(self):
        with pytest.raises(DataError, match="missing"):
            parse_grid_spec("n=1;peak=0.5;prune=0")

    def test_bad_mode_rejected(self):
        with pytest.raises(DataError):
            parse_grid_spec("n=1;peak=0.5;prune=0;mode=diagonal")

    def test_cardinality(self):
        spec = parse_grid_spec("n=1..7;peak=0:0.9:0.1;prune=0,2,5;mode=fwd,union")
        assert spec.cardinality == 7 * 10 * 3 * 2


class TestPearson:
    def test_perfect_linearity(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == 1.0

    def test_anti_linearity(self):
        assert pearson([1, 2, 3], [6, 4, 2]) == -1.0

    def test_zero_variance_flagged(self):
        assert pearson([1, 2, 3], [5, 5, 5]) is None

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            pearson([1, 2], [1, 2, 3])

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=20))
    def test_symmetry_and_bounds(self, xs):
        ys = [x * 0.5 + 3 for x in xs]
        noisy = [y + i % 3 for i, y in enumerate(ys)]
        r_xy = pearson(xs, noisy)
        r_yx = pearson(noisy, xs)
        if r_xy is None:
            assert r_yx is None
        else:
            assert r_xy == pytest.approx(r_yx)
            assert -1.0 <= r_xy <= 1.0

    @given(
        st.lists(st.integers(-50, 50).map(float), min_size=2, max_size=15),
        st.sampled_from([-4.0, -1.5, -0.5, 0.25, 2.0, 8.0]),
        st.sampled_from([-10.0, -3.5, 0.0, 1.0, 7.25]),
    )
    def test_scale_invariance(self, xs, a, b):
        ys = [x * 1.5 + ((i * 7) % 5) for i, x in enumerate(xs)]
        base = pearson(xs, ys)
        scaled = pearson([a * x + b for x in xs], ys)
        if base is None:
            assert scaled is None
        else:
            sign = 1.0 if a > 0 else -1.0
            assert scaled == pytest.approx(sign * base, abs=1e-9)


class TestRunGrid:
    def test_single_point(self):
        train, test, gold = tiny_setup()
        spec = parse_grid_spec("n=1;peak=0.5;prune=0;mode=union")
        records = run_grid(train, test, gold, spec, 2)
        assert len(records) == 1
        assert records[0].error is None

    def test_record_count_is_cardinality(self):
        train, test, gold = tiny_setup()
        spec = parse_grid_spec("n=1,2;peak=0.2,0.6;prune=0,1;mode=fwd,union")
        records = run_grid(train, test, gold, spec, 2)
        assert len(records) == spec.cardinality == 16

    def test_deterministic_and_sorted(self):
        train, test, gold = tiny_setup()
        spec = parse_grid_spec("n=2,1;peak=0.6,0.2;prune=0;mode=union,fwd")
        a = run_grid(train, test, gold, spec, 2)
        b = run_grid(train, test, gold, spec, 2)
        assert [(r.params, r.report, r.reciprocal_cf, r.error) for r in a] == [
            (r.params, r.report, r.reciprocal_cf, r.error) for r in b
        ]
        keys = [(r.params.n, r.params.peak_threshold, r.params.prune_threshold) for r in a]
        assert keys == sorted(keys)

    def test_matches_naive_per_trial_pipeline(self):
        # identical results whether models are pruned from a shared raw model
        # or rebuilt and re-pruned for every trial, with every metric counted
        # from whole segmented corpora
        train, test, gold = tiny_setup()
        spec = parse_grid_spec("n=1,2;peak=0.0,0.4;prune=0,1;mode=fwd,union")
        n_max = 2
        records = run_grid(train, test, gold, spec, n_max)
        part_a, part_b = split_even_odd(train)
        for record in records:
            assert record.error is None
            params = record.params
            model = build_model(train, n_max)
            segs = segment_corpus(model, test, params)
            _, f1 = boundary_f1(segs, gold)
            stats = token_stats(segs, drop_whitespace_tokens=True)
            seg_a = [s.tokens for s in segment_corpus(build_model(part_a, n_max), test, params)]
            seg_b = [s.tokens for s in segment_corpus(build_model(part_b, n_max), test, params)]
            csf1 = f1_score(boundary_counts(seg_a, seg_b))
            assert record.report.f1 == f1
            assert record.report.anti_entropy == anti_entropy(stats)
            assert record.report.compression_factor == compression_factor(stats)
            assert record.report.csf1 == csf1
            assert record.reciprocal_cf == 1.0 / record.report.compression_factor
            assert cross_split_f1(train, test, params, n_max) == csf1

    def test_misaligned_gold_rejected(self):
        train, test, gold = tiny_setup()
        bad = GoldSegmentation(gold.lines[:-1])
        spec = parse_grid_spec("n=1;peak=0.5;prune=0;mode=union")
        with pytest.raises(DataError):
            run_grid(train, test, bad, spec, 1)


class TestRunMorphGrid:
    def test_single_point(self):
        lex, inv = make_affixed_lexicon(3, stems=5, suffixes=2)
        spec = parse_grid_spec("n=2;peak=0.5;prune=0;mode=union")
        records = run_morph_grid(lex, inv, spec, 3)
        assert len(records) == 1
        record = records[0]
        assert record.error is None
        assert record.report.csf1 is None and record.report.avg3 is None

    def test_record_count(self):
        lex, inv = make_affixed_lexicon(3, stems=5, suffixes=2)
        spec = parse_grid_spec("n=1..3;peak=0.2,0.6;prune=0;mode=fwd,union")
        records = run_morph_grid(lex, inv, spec, 3)
        assert len(records) == spec.cardinality == 12

    def test_matches_per_word_pipeline(self):
        # every record equals, to the last bit, segmenting each word on its
        # own and tallying its boundaries against a fresh greedy parse
        lex, inv = make_affixed_lexicon(3, stems=6, suffixes=3)
        lex = FreqLexicon({word: 1 + i % 4 for i, word in enumerate(lex.entries)})
        prefixes = frozenset(sorted({word[:2] for word in lex.entries})[:2])
        inv = AffixInventory(prefixes, inv.suffixes, min_stem=2)
        spec = parse_grid_spec("n=1..3;peak=0.1:0.9:0.2;prune=0,2;mode=fwd,bwd,union")
        n_max = 3
        records = run_morph_grid(lex, inv, spec, n_max)
        assert len(records) == spec.cardinality
        for record in records:
            assert record.error is None
            params = record.params
            model = build_morph_model(lex, n_max)
            f1_weighted = 0.0
            total_weight = 0
            piece_counts = {}
            total_tokens = 0
            total_chars = 0
            for word, freq in lex.entries.items():
                predicted = segment(model, word, params).tokens
                reference = greedy_parse(word, inv).pieces
                f1_weighted += freq * f1_score(boundary_counts([predicted], [reference]))
                total_weight += freq
                for piece in predicted:
                    piece_counts[piece] = piece_counts.get(piece, 0) + freq
                total_tokens += freq * len(predicted)
                total_chars += freq * len(word)
            stats = TokenStats(piece_counts, total_tokens, total_chars)
            expected = (f1_weighted / total_weight, anti_entropy(stats), compression_factor(stats))
            report = record.report
            got = (report.f1, report.anti_entropy, report.compression_factor)
            assert got == expected
            assert got == weighted_morph_f1(build_morph_model(lex, n_max), lex, inv, params)
            s_value, c_value = expected[1:]
            assert (report.avg2, report.product) == ((s_value + c_value) / 2, s_value * c_value)
            assert record.reciprocal_cf == 1.0 / c_value

    def test_correlation_has_definite_sign(self):
        # correct morph cuts shrink the piece dictionary, so F1 and the
        # as-written compression factor move in opposite directions
        lex, inv = make_affixed_lexicon(3)
        spec = parse_grid_spec("n=1..4;peak=0.1:0.9:0.2;prune=0;mode=union")
        records = run_morph_grid(lex, inv, spec, 4)
        summary = summarize(records)
        r = summary.pearson_f1_vs["compression_factor"]
        assert r is not None and abs(r) >= 0.3
        assert summary.pearson_f1_vs["csf1"] is None


class TestSummarize:
    @staticmethod
    def fake_record(n, f1, se, cf, csf1):
        avg3 = (se + cf + csf1) / 3
        report = MetricsReport(f1, se, cf, csf1, avg3, (se + cf) / 2, se * cf)
        return TrialRecord(SegmenterParams(n, 0.5, 0, "union"), report, 0, None)

    def test_perfect_avg3_correlation(self):
        records = [
            self.fake_record(1, 0.1, 0.1, 0.1, 0.1),
            self.fake_record(2, 0.4, 0.4, 0.4, 0.4),
            self.fake_record(3, 0.9, 0.9, 0.9, 0.9),
        ]
        summary = summarize(records)
        assert summary.pearson_f1_vs["avg3"] == pytest.approx(1.0)
        assert summary.argmax_params["avg3"].n == 3

    def test_two_records(self):
        records = [self.fake_record(1, 0.1, 0.2, 0.5, 0.3), self.fake_record(2, 0.8, 0.4, 0.6, 0.9)]
        summary = summarize(records)
        for value in summary.pearson_f1_vs.values():
            assert value is None or value == pytest.approx(1.0) or value == pytest.approx(-1.0)

    def test_needs_two_valid(self):
        record = self.fake_record(1, 0.5, 0.5, 0.5, 0.5)
        failed = TrialRecord(SegmenterParams(2, 0.5, 0, "union"), None, 0, "boom")
        with pytest.raises(DataError):
            summarize([record, failed])

    def test_error_records_excluded(self):
        records = [
            self.fake_record(1, 0.1, 0.2, 0.3, 0.4),
            self.fake_record(2, 0.9, 0.8, 0.7, 0.6),
            TrialRecord(SegmenterParams(3, 0.5, 0, "union"), None, 0, "boom"),
        ]
        summary = summarize(records)
        assert summary.pearson_f1_vs["anti_entropy"] is not None

    def test_matches_external_recompute_from_csv(self, tmp_path):
        train, test, gold = tiny_setup()
        spec = parse_grid_spec("n=1,2;peak=0.0,0.3,0.6;prune=0;mode=union")
        records = run_grid(train, test, gold, spec, 2)
        summary = summarize(records)
        path = tmp_path / "trials.csv"
        write_trials_csv(records, path)
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        xs = [float(r["f1"]) for r in rows if not r["error"]]
        ys = [float(r["avg3"]) for r in rows if not r["error"]]
        n = len(xs)
        mx, my = sum(xs) / n, sum(ys) / n
        cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
        denom = math.sqrt(sum((x - mx) ** 2 for x in xs) * sum((y - my) ** 2 for y in ys))
        if denom == 0:
            assert summary.pearson_f1_vs["avg3"] is None
        else:
            assert summary.pearson_f1_vs["avg3"] == pytest.approx(cov / denom, abs=1e-6)


class TestTrialCsv:
    def test_header_and_layout(self, tmp_path):
        train, test, gold = tiny_setup()
        spec = parse_grid_spec("n=1;peak=0.25;prune=0;mode=union")
        records = run_grid(train, test, gold, spec, 1)
        path = tmp_path / "t.csv"
        write_trials_csv(records, path, config={"run": "demo"})
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[0] == '# config: {"run": "demo"}'
        assert lines[1] == CSV_HEADER
        fields = lines[2].split(",")
        assert fields[0] == "1" and fields[1] == "0.25" and fields[3] == "union"
        assert fields[12] == "0"  # wall time suppressed by default

    def test_nine_significant_digits(self, tmp_path):
        report = MetricsReport(1 / 3, 2 / 3, 1.25, 0.5, 0.80555555555, 0.958333333333, 5 / 6)
        record = TrialRecord(SegmenterParams(1, 0.1, 0, "forward"), report, 1234, None)
        path = tmp_path / "t.csv"
        write_trials_csv([record], path)
        row = path.read_text().splitlines()[1].split(",")
        assert row[4] == "0.333333333"
        assert row[5] == "0.666666667"

    def test_rewrite_is_byte_identical(self, tmp_path):
        train, test, gold = tiny_setup()
        spec = parse_grid_spec("n=1,2;peak=0.2;prune=0;mode=union")
        records = run_grid(train, test, gold, spec, 2)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trials_csv(records, p1, config={"k": 1})
        write_trials_csv(run_grid(train, test, gold, spec, 2), p2, config={"k": 1})
        assert p1.read_bytes() == p2.read_bytes()
