import csv
import math
import weakref
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from tlab import lab, metrics, morphology, segmenter, walk
from tlab.corpus import DataError, GoldSegmentation, TextCorpus, split_even_odd
from tlab.lab import (
    MAX_AXIS_VALUES,
    GridSpec,
    TrialRecord,
    parse_grid_spec,
    pearson,
    run_grid,
    run_morph_grid,
    summarize,
    write_trials_csv,
)
from tlab.metrics import (
    BoundaryCounts,
    MetricsReport,
    TokenStats,
    anti_entropy,
    boundary_counts,
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
    reference_cuts,
    weighted_morph_f1,
)
from tlab.ngram import build_model, order_freedom, prune
from tlab.segmenter import (
    MODES,
    SegmenterParams,
    detect_boundaries,
    levels,
    segment,
    segment_corpus,
    split_at,
    thresholds,
)
from tlab.synth import make_affixed_lexicon, make_segmented_corpus, make_vocabulary

import reference
from strategies import SEPARATORS, draw_axes, draw_peaks, spaced_line


def tiny_setup(spaces=True, train_lines=60, test_lines=12):
    words, weights = make_vocabulary(5, size=12, min_len=2, max_len=4, alphabet="abcdef")
    train, _ = make_segmented_corpus(words, weights, 11, lines=train_lines, min_words=3, max_words=6, spaces=spaces)
    test, gold = make_segmented_corpus(words, weights, 12, lines=test_lines, min_words=3, max_words=6, spaces=spaces)
    return train, test, gold


class TestParseGridSpec:
    def test_full_syntax(self):
        spec = parse_grid_spec("n=1..3;peak=0:0.4:0.2;prune=0,2;mode=fwd,union")
        assert spec.n == (1, 2, 3)
        assert spec.peak == (0.0, 0.2, 0.4)
        assert spec.prune == (0, 2)
        assert spec.mode == ("fwd", "union")

    def test_comma_lists(self):
        spec = parse_grid_spec("n=2,4;peak=0.1,0.9;prune=1;mode=bwd")
        assert spec.n == (2, 4)
        assert spec.peak == (0.1, 0.9)
        assert spec.mode == ("bwd",)

    def test_missing_axis_rejected(self):
        with pytest.raises(DataError, match="missing"):
            parse_grid_spec("n=1;peak=0.5;prune=0")

    def test_repeated_axis_rejected(self):
        with pytest.raises(DataError, match="twice"):
            parse_grid_spec("n=1..3;peak=0.5;prune=0;mode=fwd;n=5", 7)

    def test_bad_mode_rejected(self):
        with pytest.raises(DataError):
            parse_grid_spec("n=1;peak=0.5;prune=0;mode=diagonal")

    @pytest.mark.parametrize("axes", ["n=1:2:0.5;prune=0", "n=1;prune=0:2:0.5", "n=1.5;prune=0", "n=1;prune=0.5",
                                      "n=1..2.5;prune=0", "n=1;prune=0..1.5"])
    def test_fractional_order_or_prune_rejected(self, axes):
        # whatever the syntax, a value is never truncated to a whole number
        with pytest.raises(DataError, match="must be whole numbers"):
            parse_grid_spec(f"{axes};peak=0.5;mode=fwd")

    def test_whole_float_range_on_an_integer_axis(self):
        spec = parse_grid_spec("n=1:3:1;peak=0.5;prune=0:4:2;mode=fwd")
        assert (spec.n, spec.prune) == ((1, 2, 3), (0, 2, 4))
        assert {type(value) for value in spec.n + spec.prune} == {int}

    @pytest.mark.parametrize("axes, n, prune", [
        ("n=1.0;prune=2.0", (1,), (2,)),
        ("n=1.0,3;prune=0,2.0", (1, 3), (0, 2)),
        ("n=1.0..2;prune=0..1.0", (1, 2), (0, 1)),
    ])
    def test_whole_decimal_on_an_integer_axis(self, axes, n, prune):
        spec = parse_grid_spec(f"{axes};peak=0.5;mode=fwd")
        assert (spec.n, spec.prune) == (n, prune)
        assert {type(value) for value in spec.n + spec.prune} == {int}

    @pytest.mark.parametrize("axes, message", [("n=abc;prune=0", "non-numeric grid value"),
                                               ("n=1;prune=x..2", "non-numeric grid range")])
    def test_non_numeric_order_or_prune_rejected(self, axes, message):
        with pytest.raises(DataError, match=message):
            parse_grid_spec(f"{axes};peak=0.5;mode=fwd")

    def test_cardinality(self):
        spec = parse_grid_spec("n=1..7;peak=0:0.9:0.1;prune=0,2,5;mode=fwd,union")
        axes = (spec.n, spec.peak, spec.prune, spec.mode)
        assert tuple(map(len, axes)) == (7, 10, 3, 2)

    def test_trial_limit(self):
        # each axis within its limit, and the product named; a grid at the limit parses
        with pytest.raises(DataError, match="grid holds 21002100000 trials, more than 100000"):
            parse_grid_spec("n=1..7;peak=0:1:0.0001;prune=0..99999;mode=fwd,union,bwd")
        assert len(parse_grid_spec("n=1,2;peak=0.5,0.5;prune=0..49999;mode=fwd").prune) == MAX_AXIS_VALUES // 2
        with pytest.raises(DataError, match="grid holds 100002 trials"):
            parse_grid_spec("n=1..3;peak=0.5;prune=0..33333;mode=fwd")
        # repeated values are one trial
        spec = parse_grid_spec(f"n=1,1;peak=0.5;prune=0..{MAX_AXIS_VALUES - 1};mode=fwd,fwd")
        assert len(spec.n) * len(spec.prune) * len(spec.mode) == 4 * MAX_AXIS_VALUES

    def test_axis_value_limit(self):
        spec = parse_grid_spec(f"n=1;peak=0.5;prune=0..{MAX_AXIS_VALUES - 1};mode=fwd")
        assert len(spec.prune) == MAX_AXIS_VALUES
        for axis in (f"prune=0..{MAX_AXIS_VALUES}", "peak=0:1:0.00001"):  # one value more
            with pytest.raises(DataError, match="more than"):
                parse_grid_spec(f"n=1;peak=0.5;prune=0;mode=fwd;{axis}")

    @given(
        st.integers(0, 1000).map(lambda k: k / 1000),
        st.integers(0, 1000).map(lambda k: k / 1000),
        st.sampled_from([0.1, 0.2, 0.25, 0.3, 1 / 3, 0.05, 0.007, 0.0001]) | st.floats(0.001, 1.5),
    )
    # a last value just past the stop that rounds back within it (one more than
    # the float estimate), and one just within that rounds past it (one fewer)
    @example(0.0, 0.001, 0.00050000052)
    @example(0.0, 0.009, 0.0045000004799999995)
    def test_float_range_is_counted_exactly(self, start, stop, step):
        # counting a range lists what stepping from its start until the stop lists
        stepped = []
        while (value := round(start + len(stepped) * step, 10)) <= stop + 1e-9:
            stepped.append(value)
        text = f"n=1;peak={start!r}:{stop!r}:{step!r};prune=0;mode=fwd"
        if stepped:
            assert parse_grid_spec(text).peak == tuple(stepped)
        else:
            with pytest.raises(DataError, match="empty range"):
                parse_grid_spec(text)


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
        records = run_grid(train, test, gold, spec)
        assert len(records) == 1
        assert records[0].error is None

    def test_record_count_is_cardinality(self):
        train, test, gold = tiny_setup()
        spec = parse_grid_spec("n=1,2;peak=0.2,0.6;prune=0,1;mode=fwd,union")
        records = run_grid(train, test, gold, spec)
        assert len(records) == 2 * 2 * 2 * 2

    def test_deterministic_and_sorted(self):
        train, test, gold = tiny_setup()
        spec = parse_grid_spec("n=2,1;peak=0.6,0.2;prune=0;mode=union,fwd")
        a = run_grid(train, test, gold, spec)
        b = run_grid(train, test, gold, spec)
        assert [(r.params, r.report, r.error) for r in a] == [(r.params, r.report, r.error) for r in b]
        points = [r.params for r in a]
        assert points == sorted(points)

    def test_matches_naive_per_trial_pipeline(self):
        # identical results whether models are pruned from a shared raw model
        # or rebuilt and re-pruned for every trial, with every metric counted
        # from whole segmented corpora
        train, test, gold = tiny_setup()
        spec = parse_grid_spec("n=1,2;peak=0.0,0.4;prune=0,1;mode=fwd,union")
        n_max = 2
        records = run_grid(train, test, gold, spec)
        part_a, part_b = split_even_odd(train)
        for record in records:
            assert record.error is None
            params = record.params
            model = build_model(train, n_max)
            segs = segment_corpus(model, test, params)
            f1 = f1_score(boundary_counts(segs, gold.lines))
            stats = token_stats(segs)
            seg_a = segment_corpus(build_model(part_a, n_max), test, params)
            seg_b = segment_corpus(build_model(part_b, n_max), test, params)
            csf1 = f1_score(boundary_counts(seg_a, seg_b))
            assert record.report.f1 == f1
            assert record.report.anti_entropy == anti_entropy(stats)
            assert record.report.compression_factor == compression_factor(stats)
            assert record.report.csf1 == csf1
            assert record.report.reciprocal_cf == 1.0 / record.report.compression_factor
            assert cross_split_f1(train, test, params) == csf1

    def test_union_cell_reuses_the_forward_scores(self, monkeypatch):
        # a fwd+union grid profiles each line under each model once per
        # direction, at every scored (prune, n); prune 1 removes no window,
        # so its cells copy the prune-0 cells' records and profile nothing
        train, test, gold = tiny_setup()
        directions = []
        real = segmenter.profile
        monkeypatch.setattr(segmenter, "profile", lambda *args: directions.append(args[2]) or real(*args))
        run_grid(train, test, gold, parse_grid_spec("n=1,2;peak=0.2,0.6;prune=0,1;mode=fwd,union"))
        per_direction = len(test.lines) * 3 * 1 * 2  # lines x models x scored prune values x orders
        assert Counter(directions) == {"fwd": per_direction, "bwd": per_direction}

    def test_one_project_cuts_call_per_model_and_line_in_each_scored_cell(self, monkeypatch):
        # gold F1 and cross-split F1 are both binned by split_tallies, so each
        # scored (n, prune, mode) cell maps each line's levels under each of
        # its three models once, wherever the mapping is imported; gold is
        # mapped once per line for the whole grid, and the prune-1 cells are copies
        train, test, gold = tiny_setup()
        calls = []
        real = metrics.project_cuts
        for module in (metrics, walk, lab):
            if getattr(module, "project_cuts", None) is real:
                monkeypatch.setattr(module, "project_cuts", lambda *args: calls.append(1) or real(*args))
        run_grid(train, test, gold, parse_grid_spec("n=1,2;peak=0.2,0.6;prune=0,1;mode=fwd,union"))
        # models x lines x modes x scored prune values x orders, and gold's lines
        assert len(calls) == 3 * len(test.lines) * 2 * 1 * 2 + len(test.lines)

    def test_models_count_up_to_the_largest_grid_order(self, monkeypatch):
        train, test, gold = tiny_setup()
        orders = []
        real = lab.build_model
        monkeypatch.setattr(lab, "build_model", lambda *args: orders.append(args[1]) or real(*args))
        run_grid(train, test, gold, parse_grid_spec("n=1,2;peak=0.5;prune=0;mode=union"))
        assert orders == [2, 2]

    def test_misaligned_gold_rejected(self):
        train, test, gold = tiny_setup()
        bad = GoldSegmentation(gold.lines[:-1])
        spec = parse_grid_spec("n=1;peak=0.5;prune=0;mode=union")
        with pytest.raises(DataError):
            run_grid(train, test, bad, spec)


class TestRunMorphGrid:
    def test_single_point(self):
        lex, inv = make_affixed_lexicon(3, stems=5, suffixes=2)
        spec = parse_grid_spec("n=2;peak=0.5;prune=0;mode=union")
        records = run_morph_grid(lex, inv, spec)
        assert len(records) == 1
        record = records[0]
        assert record.error is None
        assert record.report.csf1 is None and record.report.avg3 is None

    def test_record_count(self):
        lex, inv = make_affixed_lexicon(3, stems=5, suffixes=2)
        spec = parse_grid_spec("n=1..3;peak=0.2,0.6;prune=0;mode=fwd,union")
        records = run_morph_grid(lex, inv, spec)
        assert len(records) == 3 * 2 * 1 * 2

    def test_scores_and_model_orders(self, monkeypatch):
        # with all three modes, each cell profiles each word once per
        # direction, and its union scores are read from those profiles
        lex, inv = make_affixed_lexicon(3, stems=5, suffixes=2)
        directions, orders = [], []
        real_profile, real_build = segmenter.profile, lab.build_morph_model
        monkeypatch.setattr(segmenter, "profile", lambda *args: directions.append(args[2]) or real_profile(*args))
        monkeypatch.setattr(lab, "build_morph_model", lambda *args: orders.append(args[1]) or real_build(*args))
        run_morph_grid(lex, inv, parse_grid_spec("n=1..3;peak=0.2,0.6;prune=0;mode=fwd,bwd,union"))
        per_direction = len(lex.entries) * 3  # words x orders
        assert Counter(directions) == {"fwd": per_direction, "bwd": per_direction}
        assert orders == [3]

    def test_matches_per_word_pipeline(self):
        # every record equals, to the last bit, segmenting each word on its
        # own and tallying its boundaries against a fresh greedy parse
        lex, inv = make_affixed_lexicon(3, stems=6, suffixes=3)
        lex = FreqLexicon({word: 1 + i % 4 for i, word in enumerate(lex.entries)})
        prefixes = frozenset(sorted({word[:2] for word in lex.entries})[:2])
        inv = AffixInventory(prefixes, inv.suffixes, min_stem=2)
        spec = parse_grid_spec("n=1..3;peak=0.1:0.9:0.2;prune=0,2;mode=fwd,bwd,union")
        n_max = 3
        records = run_morph_grid(lex, inv, spec)
        assert len(records) == 3 * 5 * 2 * 3
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
                predicted = segment(model, word, params)
                reference = greedy_parse(word, inv)
                f1_weighted += freq * f1_score(boundary_counts([predicted], [reference]))
                total_weight += freq
                for piece in predicted:
                    piece_counts[piece] = piece_counts.get(piece, 0) + freq
                total_tokens += freq * len(predicted)
                total_chars += freq * len(word)
            stats = TokenStats(piece_counts, total_tokens, total_chars)
            expected = (f1_weighted / total_weight, anti_entropy(stats), compression_factor(stats))
            report = record.report
            assert (report.f1, report.anti_entropy, report.compression_factor) == expected
            assert report == weighted_morph_f1(build_morph_model(lex, n_max), lex, inv, params)
            s_value, c_value = expected[1:]
            assert (report.avg2, report.product) == ((s_value + c_value) / 2, s_value * c_value)
            assert report.reciprocal_cf == 1.0 / c_value

    def test_correlation_has_definite_sign(self):
        # correct morph cuts shrink the piece dictionary, so F1 and the
        # as-written compression factor move in opposite directions
        lex, inv = make_affixed_lexicon(3)
        spec = parse_grid_spec("n=1..4;peak=0.1:0.9:0.2;prune=0;mode=union")
        records = run_morph_grid(lex, inv, spec)
        summary = summarize(records)
        r = summary.pearson_f1_vs["compression_factor"]
        assert r is not None and abs(r) >= 0.3
        assert summary.pearson_f1_vs["csf1"] is None


class TestDegreeTableLifetime:
    """A sweep holds only the degree tables of the cell it is scoring."""

    GRID = "n=1..3;peak=0.2,0.6;prune=0,1,2;mode=fwd,bwd,union"

    def alive_at_each_derivation(self, monkeypatch):
        """Patch the sweep's freedom views; the list it returns gets, at each
        new view, the view's order and the orders of every degree table
        still alive, the new view's two included."""
        tables, snapshots = [], []
        real = lab.freedom

        def derive(n, windows, min_count):
            view = real(n, windows, min_count)
            tables.extend((weakref.ref(table), n) for table in view.degrees.values())
            snapshots.append((n, [order for ref, order in tables if ref() is not None]))
            return view

        monkeypatch.setattr(lab, "freedom", derive)
        return snapshots

    def check(self, snapshots, models):
        assert {n for n, _ in snapshots} == {1, 2, 3}
        for n, alive in snapshots:
            assert set(alive) == {n}
            assert len(alive) <= 2 * models
        assert max(len(alive) for _, alive in snapshots) == 2 * models

    def test_word_grid(self, monkeypatch):
        train, test, gold = tiny_setup()
        snapshots = self.alive_at_each_derivation(monkeypatch)
        run_grid(train, test, gold, parse_grid_spec(self.GRID))
        self.check(snapshots, models=3)

    def test_morph_grid(self, monkeypatch):
        lex, inv = make_affixed_lexicon(3, stems=5, suffixes=2)
        snapshots = self.alive_at_each_derivation(monkeypatch)
        run_morph_grid(lex, inv, parse_grid_spec(self.GRID))
        self.check(snapshots, models=1)


class TestRawWindowLifetime:
    """A sweep frees each order's raw windows once that order's cells are
    done, and those of an order off the grid (2 here) before it starts."""

    GRID = "n=1,3,4;peak=0.2,0.6;prune=0,1;mode=fwd,union"

    class Table(dict):
        """A window table a weak reference can follow."""

        __slots__ = ("__weakref__",)

    def alive_at_each_derivation(self, monkeypatch):
        """Patch the sweep to replace every raw window table it is given, in
        place, with a copy a weak reference can follow, and keep that weakref
        and the table's order; and its freedom views to record, at each new
        view, the view's order and the orders of the raw tables still alive."""
        raw, snapshots = [], []
        real_sweep, real_freedom = lab._sweep, lab.freedom

        def sweep(spec, raw_windows, *rest):
            for windows in raw_windows:
                for n, table in windows.items():
                    windows[n] = self.Table(table)
                    raw.append((weakref.ref(windows[n]), n))
            return real_sweep(spec, raw_windows, *rest)

        def derive(n, windows, min_count):
            snapshots.append((n, sorted(order for ref, order in raw if ref() is not None)))
            return real_freedom(n, windows, min_count)

        monkeypatch.setattr(lab, "_sweep", sweep)
        monkeypatch.setattr(lab, "freedom", derive)
        return snapshots

    def check(self, snapshots, models):
        assert {n for n, _ in snapshots} == {1, 3, 4}
        for n, alive in snapshots:
            assert alive == sorted([order for order in (1, 3, 4) if order >= n] * models)

    def test_word_grid(self, monkeypatch):
        train, test, gold = tiny_setup()
        snapshots = self.alive_at_each_derivation(monkeypatch)
        run_grid(train, test, gold, parse_grid_spec(self.GRID))
        self.check(snapshots, models=3)

    def test_morph_grid(self, monkeypatch):
        lex, inv = make_affixed_lexicon(3, stems=5, suffixes=2)
        snapshots = self.alive_at_each_derivation(monkeypatch)
        run_morph_grid(lex, inv, parse_grid_spec(self.GRID))
        self.check(snapshots, models=1)


def grid_points(spec):
    """Every distinct grid point in the order the grids sort their records."""
    for n in sorted(set(spec.n)):
        for peak in sorted(set(spec.peak)):
            for prune in sorted(set(spec.prune)):
                for mode in sorted(set(spec.mode)):
                    yield SegmenterParams(n, peak, prune, mode)


def per_peak_word_records(train, test, gold, spec, n_max):
    """run_grid as thresholding every line again at every peak: (params, report, error) per point."""
    part_a, part_b = split_even_odd(train)
    raw = [build_model(train, n_max), build_model(part_a, n_max), build_model(part_b, n_max)]
    records = []
    for params in grid_points(spec):
        peak = params.peak
        tokens_m, tokens_a, tokens_b = (
            [split_at(line, detect_boundaries(levels(view, line, params.mode, thresholds(view, (peak,), (params.mode,))), 1))
             for line in test.lines]
            for view in (order_freedom(m, params.n, params.prune) for m in raw)
        )
        f1 = f1_score(BoundaryCounts(*reference.boundary_tally(tokens_m, gold.lines)))
        csf1 = f1_score(BoundaryCounts(*reference.boundary_tally(tokens_a, tokens_b)))
        stats = token_stats(tokens_m)
        try:
            s_value, c_value = anti_entropy(stats), compression_factor(stats)
        except DataError as exc:
            records.append((params, None, f"DataError: {exc}"))
            continue
        records.append((params, MetricsReport.of(f1, s_value, c_value, csf1), None))
    return records


def per_peak_morph_records(lexicon, inventory, spec, n_max):
    """run_morph_grid as cutting every word again at every peak: (params, report, error) per point."""
    raw = build_morph_model(lexicon, n_max)
    references = reference_cuts(lexicon, inventory)
    records = []
    for params in grid_points(spec):
        view = order_freedom(raw, params.n, params.prune)
        table = thresholds(view, (params.peak,), (params.mode,))
        f1_weighted = 0.0
        pieces = []
        for (word, freq), reference in zip(lexicon.entries.items(), references):
            cuts = detect_boundaries(levels(view, word, params.mode, table), 1)
            hits = len(reference.intersection(cuts))
            f1_weighted += freq * f1_score(BoundaryCounts(hits, len(cuts) - hits, len(reference) - hits))
            pieces += [split_at(word, cuts)] * freq  # a word's pieces occur as often as the word
        stats = token_stats(pieces)
        f1 = f1_weighted / sum(lexicon.entries.values())
        s_value, c_value = anti_entropy(stats), compression_factor(stats)
        records.append((params, MetricsReport.of(f1, s_value, c_value), None))
    return records


class TestDescendingWalk:
    """The grids walk each cell's peaks from the highest down; every record must
    equal thresholding every line again at each peak."""

    @settings(max_examples=60)
    @given(data=st.data())
    def test_word_grid_matches_per_peak_path(self, data):
        train = TextCorpus(tuple(line for line, _ in data.draw(st.lists(spaced_line(), min_size=2, max_size=8))))
        if data.draw(st.booleans()):
            drawn = data.draw(st.lists(spaced_line(), min_size=1, max_size=5))
            test = TextCorpus(tuple(line for line, _ in drawn))
            gold = GoldSegmentation(tuple(tokens for _, tokens in drawn))
        else:  # nothing but whitespace: no token at any peak
            test = TextCorpus(tuple(data.draw(st.lists(SEPARATORS.filter(bool), min_size=1, max_size=3))))
            gold = GoldSegmentation(tuple(() for _ in test.lines))
        n_values, prune_values, modes = draw_axes(data)
        part_a, part_b = split_even_odd(train)
        models = [build_model(corpus, 3) for corpus in (train, part_a, part_b)]
        spec = GridSpec(n_values, draw_peaks(data, models, test.lines, n_values), prune_values, modes)

        records = run_grid(train, test, gold, spec)
        assert [(r.params, r.report, r.error) for r in records] == per_peak_word_records(train, test, gold, spec, 3)
        if not any(tokens for tokens in gold.lines):
            assert {r.error for r in records} == {"DataError: anti-entropy needs at least one token"}

    @settings(max_examples=60)
    @given(data=st.data())
    def test_morph_grid_matches_per_peak_path(self, data):
        words = data.draw(st.lists(st.text(alphabet="abcd", min_size=1, max_size=7), min_size=1, max_size=8, unique=True))
        lexicon = FreqLexicon({word: data.draw(st.integers(1, 5)) for word in words})
        suffixes = frozenset(word[-2:] for word in words if len(word) > 2)
        inventory = AffixInventory(frozenset(), suffixes, min_stem=data.draw(st.integers(1, 3)))
        n_values, prune_values, modes = draw_axes(data)
        model = build_morph_model(lexicon, 3)
        spec = GridSpec(n_values, draw_peaks(data, [model], words, n_values), prune_values, modes)

        records = run_morph_grid(lexicon, inventory, spec)
        assert [(r.params, r.report, r.error) for r in records] == per_peak_morph_records(lexicon, inventory, spec, 3)


class TestSummarize:
    @staticmethod
    def fake_record(n, f1, se, cf, csf1):
        return TrialRecord(SegmenterParams(n, 0.5, 0, "union"), MetricsReport.of(f1, se, cf, csf1))

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
        failed = TrialRecord(SegmenterParams(2, 0.5, 0, "union"), None, "boom")
        with pytest.raises(DataError):
            summarize([record, failed])

    def test_error_records_excluded(self):
        records = [
            self.fake_record(1, 0.1, 0.2, 0.3, 0.4),
            self.fake_record(2, 0.9, 0.8, 0.7, 0.6),
            TrialRecord(SegmenterParams(3, 0.5, 0, "union"), None, "boom"),
        ]
        summary = summarize(records)
        assert summary.pearson_f1_vs["anti_entropy"] is not None

    def test_matches_external_recompute_from_csv(self, tmp_path):
        train, test, gold = tiny_setup()
        spec = parse_grid_spec("n=1,2;peak=0.0,0.3,0.6;prune=0;mode=union")
        records = run_grid(train, test, gold, spec)
        summary = summarize(records)
        path = tmp_path / "trials.csv"
        write_trials_csv(records, path, config={"run": "recompute"})
        with path.open(encoding="utf-8") as handle:
            assert handle.readline().startswith("# config:")
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
        records = run_grid(train, test, gold, spec)
        path = tmp_path / "t.csv"
        write_trials_csv(records, path, config={"run": "demo"})
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[0] == '# config: {"run": "demo"}'
        assert lines[1] == (
            "n,peak,prune,mode,f1,anti_entropy,compression_factor,reciprocal_cf,csf1,avg3,avg2,product,wall_time_ms,error"
        )
        fields = lines[2].split(",")
        assert fields[0] == "1" and fields[1] == "0.25" and fields[3] == "union"
        assert fields[12] == "0"  # the wall_time_ms column always reads 0

    def test_nine_significant_digits(self, tmp_path):
        report = MetricsReport.of(1 / 3, 2 / 3, 1.25, 0.5)
        record = TrialRecord(SegmenterParams(1, 0.1, 0, "fwd"), report)
        path = tmp_path / "t.csv"
        write_trials_csv([record], path, config={})
        row = path.read_text(encoding="utf-8").splitlines()[2].split(",")  # past the config comment and the header
        assert row[4] == "0.333333333"
        assert row[5] == "0.666666667"

    def test_rewrite_is_byte_identical(self, tmp_path):
        train, test, gold = tiny_setup()
        spec = parse_grid_spec("n=1,2;peak=0.2;prune=0;mode=union")
        records = run_grid(train, test, gold, spec)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trials_csv(records, p1, config={"k": 1})
        write_trials_csv(run_grid(train, test, gold, spec), p2, config={"k": 1})
        assert p1.read_bytes() == p2.read_bytes()


def draw_prunes(data, models, n_values):
    """Prune values with duplicates: 1, which removes no window, and values
    at, one above and between the window counts of the grid's orders."""
    counts = {c for model in models for n in n_values for c in model.windows.get(n, {}).values()}
    pool = st.sampled_from(sorted({0, 2, *counts, *(c + 1 for c in counts)}))
    return (1, *data.draw(st.lists(pool, min_size=1, max_size=4)))


def one_run_per(axis, run, spec):
    """The grid run once per distinct value of ``axis``, its records merged in sorted order."""
    values = set(getattr(spec, axis))
    return sorted((r for value in values for r in run(spec._replace(**{axis: (value,)}))), key=lambda r: r.params)


class TestModeSharing:
    """A scored cell scores each direction once for all of its modes; every
    record must equal, bit for bit, the record of a grid of its mode alone."""

    @settings(max_examples=60)
    @given(data=st.data())
    def test_word_grid_equals_one_run_per_mode(self, data):
        train = TextCorpus(tuple(line for line, _ in data.draw(st.lists(spaced_line(), min_size=2, max_size=8))))
        drawn = data.draw(st.lists(spaced_line(), min_size=1, max_size=5))
        test = TextCorpus(tuple(line for line, _ in drawn))
        gold = GoldSegmentation(tuple(tokens for _, tokens in drawn))
        n_values, prune_values, modes = draw_axes(data)
        models = [build_model(corpus, 3) for corpus in (train, *split_even_odd(train))]
        spec = GridSpec(n_values, draw_peaks(data, models, test.lines, n_values), prune_values, modes)

        def run(grid):
            return run_grid(train, test, gold, grid)

        assert repr(run(spec)) == repr(one_run_per("mode", run, spec))

    @settings(max_examples=60)
    @given(data=st.data())
    def test_morph_grid_equals_one_run_per_mode(self, data):
        words = data.draw(st.lists(st.text(alphabet="abcd", min_size=1, max_size=7), min_size=1, max_size=8, unique=True))
        lexicon = FreqLexicon({word: data.draw(st.integers(1, 5)) for word in words})
        inventory = AffixInventory(frozenset(), frozenset(word[-2:] for word in words if len(word) > 2), min_stem=2)
        n_values, prune_values, modes = draw_axes(data)
        model = build_morph_model(lexicon, 3)
        spec = GridSpec(n_values, draw_peaks(data, [model], words, n_values), prune_values, modes)

        def run(grid):
            return run_morph_grid(lexicon, inventory, grid)

        assert repr(run(spec)) == repr(one_run_per("mode", run, spec))

    def test_a_single_direction_builds_only_its_own_threshold_rows(self, monkeypatch):
        # at mode fwd no caller builds a bwd row, and every output equals
        # that of tables holding both directions
        train, test, gold = tiny_setup()
        lex, inv = make_affixed_lexicon(3, stems=5, suffixes=2)
        params, spec = SegmenterParams(2, 0.4, 0, "fwd"), parse_grid_spec("n=1,2;peak=0.2,0.6;prune=0,1;mode=fwd")
        model, morph_model = build_model(train, 2), build_morph_model(lex, 2)

        def outputs():
            return (segment_corpus(model, test, params), cross_split_f1(train, test, params),
                    weighted_morph_f1(morph_model, lex, inv, params),
                    run_grid(train, test, gold, spec), run_morph_grid(lex, inv, spec))

        real = segmenter.thresholds
        modules = [module for module in (segmenter, metrics, lab, morphology) if module.thresholds is real]
        built = []

        def recorded(view, ascending, modes):
            table = real(view, ascending, modes)
            built.append(tuple(table))
            return table

        for module in modules:
            monkeypatch.setattr(module, "thresholds", recorded)
        fwd_only = outputs()
        assert len(modules) == 4 and set(built) == {("fwd",)}
        for module in modules:
            monkeypatch.setattr(module, "thresholds", lambda view, ascending, modes: real(view, ascending, MODES))
        assert repr(outputs()) == repr(fwd_only)


class TestPruneReuse:
    """A cell whose views keep as many windows as the lower prune value's cell
    of its order copies that cell's records instead of scoring them again."""

    @settings(max_examples=150)
    @given(data=st.data())
    def test_word_grid_equals_one_run_per_prune_value(self, data):
        # lines repeat, unevenly between the halves, so a prune value often
        # removes a window from one half model's table alone
        pool = data.draw(st.lists(spaced_line(), min_size=1, max_size=4))
        train = TextCorpus(tuple(line for line, _ in data.draw(st.lists(st.sampled_from(pool), min_size=2, max_size=12))))
        test = TextCorpus(tuple(line for line, _ in pool))
        gold = GoldSegmentation(tuple(tokens for _, tokens in pool))
        n_values, _, modes = draw_axes(data)
        models = [build_model(corpus, 3) for corpus in (train, *split_even_odd(train))]
        peaks = draw_peaks(data, models, test.lines, n_values)
        spec = GridSpec(n_values, peaks, draw_prunes(data, models, n_values), modes)

        def run(grid):
            return run_grid(train, test, gold, grid)

        assert run(spec) == one_run_per("prune", run, spec)

    @settings(max_examples=40)
    @given(data=st.data())
    def test_morph_grid_equals_one_run_per_prune_value(self, data):
        words = data.draw(st.lists(st.text(alphabet="abcd", min_size=1, max_size=7), min_size=1, max_size=8, unique=True))
        lexicon = FreqLexicon({word: data.draw(st.integers(1, 5)) for word in words})
        inventory = AffixInventory(frozenset(), frozenset(word[-2:] for word in words if len(word) > 2), min_stem=2)
        n_values, _, modes = draw_axes(data)
        model = build_morph_model(lexicon, 3)
        peaks = draw_peaks(data, [model], words, n_values)
        spec = GridSpec(n_values, peaks, draw_prunes(data, [model], n_values), modes)

        def run(grid):
            return run_morph_grid(lexicon, inventory, grid)

        assert run(spec) == one_run_per("prune", run, spec)

    @staticmethod
    def count_work(monkeypatch):
        """Count the sweep's levels and walker calls, by name."""
        calls = Counter()
        for name in ("levels", "WordWalk", "MorphWalk"):
            real = getattr(lab, name)
            monkeypatch.setattr(lab, name, lambda *args, name=name, real=real: calls.update([name]) or real(*args))
        return calls

    def test_a_prune_value_that_removes_no_window_scores_nothing(self, monkeypatch):
        train, test, gold = tiny_setup()
        lex, inv = make_affixed_lexicon(3, stems=5, suffixes=2)
        grid = "n=1,2;peak=0.2,0.6;prune={};mode=fwd,bwd,union"
        calls = self.count_work(monkeypatch)
        run_grid(train, test, gold, parse_grid_spec(grid.format("0")))
        run_morph_grid(lex, inv, parse_grid_spec(grid.format("0")))
        single = Counter(calls)
        assert single.keys() == {"levels", "WordWalk", "MorphWalk"}
        run_grid(train, test, gold, parse_grid_spec(grid.format("0,1")))
        run_morph_grid(lex, inv, parse_grid_spec(grid.format("0,1")))
        assert calls == {name: 2 * count for name, count in single.items()}  # prune 0 once, then 0 and a copy

    def test_a_window_removed_from_one_half_model_alone_is_scored(self, monkeypatch):
        # prune 2 removes "bc" (count 1) from the even half's table alone: the
        # full-train table (ab 5, bc 3, bd 2) and the odd half's keep every window
        train = TextCorpus(("abc", "abc", "abd", "abc", "abd"))
        test = TextCorpus(("abcabd", "abdabc", "ab"))
        gold = GoldSegmentation((("abc", "abd"), ("abd", "abc"), ("ab",)))
        grid = "n=1;peak=0.0,0.5,1.0;prune={};mode=fwd,bwd,union"
        tables = [build_model(corpus, 1).windows[1] for corpus in (train, *split_even_odd(train))]
        assert [len(prune(table, 2)) == len(table) for table in tables] == [True, False, True]
        calls = self.count_work(monkeypatch)
        records = run_grid(train, test, gold, parse_grid_spec(grid.format("0")))
        single = Counter(calls)
        both = run_grid(train, test, gold, parse_grid_spec(grid.format("0,2")))
        assert calls == {name: 3 * count for name, count in single.items()}  # prune 0 once, then 0 and 2
        assert [r for r in both if r.params.prune == 0] == records
        copied = [r._replace(params=r.params._replace(prune=2)) for r in records]
        assert [r for r in both if r.params.prune == 2] != copied  # so a copy would be wrong
