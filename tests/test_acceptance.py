"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import functools
import math
from itertools import accumulate
import random
import time

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from tlab.cli import main
from tlab.corpus import GoldSegmentation, TextCorpus, save_segmented, save_text
from tlab.lab import DEFAULT_GRID, parse_grid_spec, pearson, run_grid, run_morph_grid, summarize
from tlab.metrics import (
    BoundaryCounts,
    TokenStats,
    anti_entropy,
    boundary_counts,
    compression_factor,
    cross_split_f1,
    f1_score,
    token_stats,
)
from tlab.morphology import AffixInventory, greedy_parse
from tlab.ngram import build_model, load_model, save_model
from tlab.segmenter import SegmenterParams, profile, segment, segment_corpus
from tlab.synth import make_affixed_lexicon, make_segmented_corpus, make_vocabulary

import reference
from strategies import corpora_with_weights, modes, orders, prune_thresholds, tops, view_of


def criterion(name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"{name}: FAIL")
                raise
            print(f"{name}: PASS" + (f" ({result})" if result else ""))

        return wrapped

    return deco


@criterion("A1 metric exactness")
def test_a1_metric_exactness():
    start = time.perf_counter()
    # anti-entropy
    assert anti_entropy(TokenStats({"a": 1, "b": 1, "c": 1, "d": 1}, 4, 4)) == 0.0
    assert anti_entropy(TokenStats({"only": 7}, 7, 7)) == 1.0
    got = anti_entropy(TokenStats({"a": 3, "b": 1}, 4, 4))
    oracle = 1.0 - (-(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))) / math.log2(2)
    assert abs(got - oracle) < 1e-12
    assert abs(got - 0.188722) <= 1e-6
    # compression factor
    assert abs(compression_factor(token_stats([("ab", "ab")])) - 1.0) <= 1e-12
    assert abs(compression_factor(token_stats([("aaaa", "aaaa")])) - 0.75) <= 1e-12
    assert abs(compression_factor(token_stats([("abab",)])) - 1.25) <= 1e-12
    # boundary F1: pred cuts {2} vs gold cuts {1,2,3}
    counts = boundary_counts([("ab", "cd")], GoldSegmentation((("a", "b", "c", "d"),)).lines)
    assert counts == BoundaryCounts(1, 0, 2)
    assert f1_score(counts) == 0.5
    assert time.perf_counter() - start < 1.0


@criterion("A2 segmenter oracle equivalence (100 random corpora)")
def test_a2_oracle_equivalence():
    start = time.perf_counter()
    peaks = (0.0, 0.1, 0.25, 0.4, 0.5, 0.75, 0.9, 1.0)
    all_modes = ("fwd", "bwd", "union")
    for case in range(100):
        rng = random.Random(20_000 + case)
        alphabet = "abcdef"[: rng.randint(2, 6)]
        lines = [
            "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
            for _ in range(rng.randint(1, 20))
        ]
        weights = [rng.randint(1, 4) for _ in lines]
        n = rng.randint(1, 4)
        theta = rng.choice(peaks)
        min_count = rng.randint(0, 3)
        mode = rng.choice(all_modes)
        model = build_model(TextCorpus(tuple(lines)), 4, line_weights=weights)
        params = SegmenterParams(n, theta, min_count, mode)
        oracle = reference.Segmenter(reference.window_counts(lines, n + 1, weights), n, min_count)
        for line in lines:
            got = segment(model, line, params)
            expected = tuple(reference.split_at(line, oracle.cuts(line, theta, mode)))
            assert got == expected, (case, line, params)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    return f"{elapsed:.1f}s"


def _a3_variant(spaces):
    words, weights = make_vocabulary(seed=42, size=50, min_len=2, max_len=6)
    train, _ = make_segmented_corpus(words, weights, seed=1, lines=5000, spaces=spaces)
    test, gold = make_segmented_corpus(words, weights, seed=2, lines=300, spaces=spaces)
    records = run_grid(train, test, gold, parse_grid_spec(DEFAULT_GRID))
    valid = [r for r in records if r.error is None]
    assert len(valid) >= 2
    f1s = [r.report.f1 for r in valid]
    max_f1 = max(f1s)

    def avg3_as_written(record):
        return record.report.avg3

    def avg3_reciprocal(record):
        return (record.report.anti_entropy + record.report.reciprocal_cf + record.report.csf1) / 3

    outcome = {}
    for label, column in (("C%", avg3_as_written), ("1/C%", avg3_reciprocal)):
        correlation = pearson(f1s, [column(r) for r in valid])
        best_f1 = max(valid, key=column).report.f1
        outcome[label] = (correlation, best_f1)
    assert any(
        r is not None and r >= 0.5 for r, _ in outcome.values()
    ), f"no orientation reaches Pearson(F1, avg3) >= 0.5: {outcome}"
    assert any(
        best >= 0.8 * max_f1 for _, best in outcome.values()
    ), f"no orientation's argmax-avg3 trial reaches 0.8 * max F1 {max_f1}: {outcome}"
    return outcome, max_f1


@criterion("A3 correlation reproduction on synthetic language")
def test_a3_correlation_reproduction():
    start = time.perf_counter()
    spaced, max_spaced = _a3_variant(spaces=True)
    unspaced, max_unspaced = _a3_variant(spaces=False)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    parts = []
    for label, (outcome, max_f1) in (("spaced", (spaced, max_spaced)), ("unspaced", (unspaced, max_unspaced))):
        r = outcome["1/C%"][0]
        parts.append(f"{label}: maxF1={max_f1:.3f} r(avg3,1/C%)={r:.3f}")
    return "; ".join(parts) + f"; {elapsed:.0f}s"


@criterion("A4 cross-split F1 identity and symmetry")
def test_a4_csf1_identity_and_symmetry():
    start = time.perf_counter()
    params = SegmenterParams(2, 0.4, 0, "union")
    identical = TextCorpus(("ab cd ab", "ab cd ab", "cd ab cd", "cd ab cd"))
    test = TextCorpus(("ab cd", "cd ab ab"))
    assert cross_split_f1(identical, test, params) == 1.0

    words, word_weights = make_vocabulary(seed=8, size=10, min_len=2, max_len=4)
    train, _ = make_segmented_corpus(words, word_weights, seed=9, lines=40, min_words=3, max_words=6)
    shared, _ = make_segmented_corpus(words, word_weights, seed=10, lines=10, min_words=3, max_words=6)
    from tlab.corpus import split_even_odd

    part_a, part_b = split_even_odd(train)
    seg_a = segment_corpus(build_model(part_a, 3), shared, params)
    seg_b = segment_corpus(build_model(part_b, 3), shared, params)
    c_ab = boundary_counts(seg_a, seg_b)
    c_ba = boundary_counts(seg_b, seg_a)
    assert c_ab.false_positive == c_ba.false_negative
    assert c_ab.false_negative == c_ba.false_positive
    assert f1_score(c_ab) == f1_score(c_ba)
    assert time.perf_counter() - start < 10.0


@criterion("A5 morphology pipeline")
def test_a5_morphology_pipeline():
    start = time.perf_counter()
    lexicon, inventory = make_affixed_lexicon(seed=7, stems=20, suffixes=4)
    assert len(lexicon.entries) == 80
    spec = parse_grid_spec("n=1..5;peak=0.1:0.9:0.2;prune=0;mode=union")
    records = run_morph_grid(lexicon, inventory, spec)
    summary = summarize(records)
    r_cf = summary.pearson_f1_vs["compression_factor"]
    assert r_cf is not None and abs(r_cf) >= 0.3
    r_se = summary.pearson_f1_vs["anti_entropy"]  # reported, not asserted

    english = AffixInventory(
        prefixes=frozenset({"un", "re"}),
        suffixes=frozenset({"able", "ing", "ed"}),
        min_stem=3,
    )
    assert greedy_parse("unbelievable", english) == ("un", "believ", "able")
    assert greedy_parse("cat", english) == ("cat",)
    assert greedy_parse("running", english) == ("runn", "ing")
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    sign = "+" if r_cf > 0 else "-"
    se_text = "undefined" if r_se is None else f"{r_se:.3f}"
    return f"r(F1,C%)={r_cf:.3f} sign={sign}; r(F1,S)={se_text}"


@criterion("A6 determinism and persistence")
def test_a6_determinism_and_persistence(tmp_path):
    start = time.perf_counter()
    words, weights = make_vocabulary(seed=5, size=12, min_len=2, max_len=4, alphabet="abcdef")
    train, _ = make_segmented_corpus(words, weights, seed=11, lines=60, min_words=3, max_words=6)
    test, gold = make_segmented_corpus(words, weights, seed=12, lines=12, min_words=3, max_words=6)

    model = build_model(train, 3)
    model_path_a = tmp_path / "model_a.tsv"
    model_path_b = tmp_path / "model_b.tsv"
    save_model(model, model_path_a)
    save_model(model, model_path_b)
    assert load_model(model_path_a) == model
    assert model_path_a.read_bytes() == model_path_b.read_bytes()

    train_path = tmp_path / "train.txt"
    test_path = tmp_path / "test.txt"
    gold_path = tmp_path / "gold.txt"
    save_text(train, train_path)
    save_text(test, test_path)
    save_segmented(gold.lines, gold_path)
    csv_path = tmp_path / "grid.csv"
    argv = [
        "--seed", "123",
        "grid-search",
        "--train", str(train_path),
        "--test", str(test_path),
        "--gold", str(gold_path),
        "--n-max", "3",
        "--grid", "n=1..3;peak=0:0.8:0.2;prune=0,2;mode=fwd,union",
        "--sample-test", "8",
        "--out-csv", str(csv_path),
    ]
    assert main(argv) == 0
    first = csv_path.read_bytes()
    assert main(argv) == 0
    second = csv_path.read_bytes()
    assert first == second
    assert time.perf_counter() - start < 60.0


@criterion("A7 randomized property suites")
def test_a7_property_suites():
    def model_of(lines, weights, n_max=3):
        return build_model(TextCorpus(tuple(lines)), n_max, line_weights=weights)

    @settings(max_examples=100, deadline=None)
    @given(corpora_with_weights(), st.integers(0, 5))
    def prune_monotonicity(lines_weights, threshold):
        lines, weights = lines_weights
        model = model_of(lines, weights)
        for n in (1, 2, 3):
            full, pruned = view_of(model, n), view_of(model, n, threshold)
            for direction in ("fwd", "bwd"):
                assert tops(pruned)[direction] <= tops(full)[direction]
                for gram in full.degrees[direction]:
                    assert pruned.degrees[direction].get(gram, 0) <= full.degrees[direction].get(gram, 0)

    @settings(max_examples=100, deadline=None)
    @given(corpora_with_weights(), orders, prune_thresholds, modes)
    def threshold_monotonicity(lines_weights, n, prune_t, mode):
        lines, weights = lines_weights
        model = model_of(lines, weights, n_max=4)
        line = lines[0]
        previous = None
        for peak in (0.0, 0.3, 0.6, 1.0):
            tokens = segment(model, line, SegmenterParams(n, peak, prune_t, mode))
            cuts = set(accumulate(map(len, tokens[:-1])))
            if previous is not None:
                assert cuts <= previous
            previous = cuts

    @settings(max_examples=100, deadline=None)
    @given(corpora_with_weights(), orders, st.floats(0, 1), prune_thresholds, modes)
    def token_losslessness(lines_weights, n, peak, prune_t, mode):
        lines, weights = lines_weights
        model = model_of(lines, weights, n_max=4)
        for line in lines[:4]:
            tokens = segment(model, line, SegmenterParams(n, peak, prune_t, mode))
            assert "".join(tokens) == line

    @settings(max_examples=100, deadline=None)
    @given(corpora_with_weights(), orders)
    def duality_under_reversal(lines_weights, n):
        lines, weights = lines_weights
        model = model_of(lines, weights, n_max=4)
        model_rev = model_of([l[::-1] for l in lines], weights, n_max=4)
        for line in lines[:3]:
            backward = profile(view_of(model, n), line, "bwd")
            forward_rev = profile(view_of(model_rev, n), line[::-1], "fwd")
            assert backward == tuple(reversed(forward_rev))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(1, 60), min_size=1, max_size=12))
    def rename_invariance(counts):
        total = sum(counts)
        first = {f"t{i}": c for i, c in enumerate(counts)}
        second = {f"zz{i * 3}": c for i, c in enumerate(counts)}
        assert anti_entropy(TokenStats(first, total, total)) == anti_entropy(
            TokenStats(second, total, total)
        )

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(-50, 50).map(float), min_size=2, max_size=15),
        st.sampled_from([-4.0, -1.5, -0.5, 0.25, 2.0, 8.0]),
        st.sampled_from([-10.0, -3.5, 0.0, 1.0, 7.25]),
    )
    def pearson_scale_invariance(xs, scale, shift):
        ys = [x * 1.5 + ((i * 7) % 5) for i, x in enumerate(xs)]
        base = pearson(xs, ys)
        transformed = pearson([scale * x + shift for x in xs], ys)
        if base is None:
            assert transformed is None
        else:
            expected = base if scale > 0 else -base
            assert transformed == pytest.approx(expected, abs=1e-9)

    for prop in (
        prune_monotonicity,
        threshold_monotonicity,
        token_losslessness,
        duality_under_reversal,
        rename_invariance,
        pearson_scale_invariance,
    ):
        prop()
