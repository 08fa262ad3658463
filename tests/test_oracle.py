"""Every grid row and every CLI metric line against the independent reference.

``perfbench/reference.py`` recomputes window counts, degrees, cuts and every
metric from their definitions and shares no code with tlab; the benchmark
checks its outputs with it too. Here every row of drawn word and morph grids,
and every ``evaluate --metrics all`` and ``morph-eval`` line, must equal its
recomputation to the 9 significant digits that the trial CSV and the JSON
lines carry. The morph gold parses come from ``greedy_parse``, the reference
the grid is scored against; every metric comes from the oracle.
"""

import ast
import json
import sys
from collections import Counter
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from tlab.cli import main
from tlab.corpus import GoldSegmentation, TextCorpus, save_text
from tlab.lab import GridSpec, run_grid, run_morph_grid
from tlab.metrics import MetricsReport, boundary_counts
from tlab.morphology import AffixInventory, FreqLexicon, build_morph_model, greedy_parse
from tlab.ngram import build_model
from tlab.segmenter import MODES

import reference
from strategies import SEPARATORS, draw_axes, draw_peaks, spaced_line

REFERENCE_PY = Path(__file__).resolve().parent.parent / "perfbench" / "reference.py"

# whitespace runs of the spaced lines, beyond the ASCII ones: scalars that
# str.isspace() holds for but that end no line in a corpus file
WIDE_SEPARATORS = SEPARATORS | st.sampled_from(["\u3000", "\x85", " \u2028", "\x1c"])
# spaced, or with every word joined to the next (an unspaced script)
LINES = st.one_of(spaced_line(WIDE_SEPARATORS), spaced_line(st.just("")))
CLI_SETTINGS = settings(max_examples=30, suppress_health_check=[HealthCheck.function_scoped_fixture])


def nine(value):
    """A metric as the trial CSV writes it: 9 significant digits, or empty for None."""
    return "" if value is None else format(value, ".9g")


def columns(f1, anti_entropy, compression_factor, csf1=None):
    """Every metric column of a trial, the derived ones worked out from their definitions."""
    s, c = anti_entropy, compression_factor
    return {
        "f1": f1, "anti_entropy": s, "compression_factor": c, "reciprocal_cf": 1.0 / c, "csf1": csf1,
        "avg3": None if csf1 is None else (s + c + csf1) / 3, "avg2": (s + c) / 2, "product": s * c,
    }


def word_row(train, test, gold, n, peak, prune, mode):
    """The oracle's metric columns of one word-grid point, or None where its cuts leave no token."""
    segmenter = reference.Segmenter(reference.window_counts(train, n + 1), n, prune)
    pred = [reference.split_at(line, segmenter.cuts(line, peak, mode)) for line in test]
    freq = reference.token_freq(pred)
    if not freq:
        return None
    return columns(reference.f1(*reference.boundary_tally(pred, gold)), reference.anti_entropy(freq),
                   reference.compression_factor(freq), reference.cross_split_f1(train, test, n, peak, prune, mode))


def morph_row(words, freqs, parses, n, peak, prune, mode):
    """The oracle's metric columns of one morph-grid point: frequency-weighted per-word F1, and
    anti-entropy and compression factor of the pieces, each counted as often as its word."""
    segmenter = reference.Segmenter(reference.window_counts(words, n + 1, freqs), n, prune)
    weighted = 0.0
    pieces: Counter = Counter()
    for word, freq, parse in zip(words, freqs, parses):
        pred = reference.split_at(word, segmenter.cuts(word, peak, mode))
        weighted += freq * reference.f1(*reference.boundary_tally([pred], [parse]))
        for piece in pred:
            pieces[piece] += freq
    return columns(weighted / sum(freqs), reference.anti_entropy(pieces), reference.compression_factor(pieces))


def assert_rows_match(records, oracle):
    """Each record holds the oracle's columns, or an error exactly where the oracle finds no token."""
    for record in records:
        want = oracle(*record.params)
        assert (record.error is None) == (want is not None), (record.params, record.error)
        if want is not None:
            got = {key: nine(value) for key, value in record.report._asdict().items()}
            assert got == {key: nine(value) for key, value in want.items()}, record.params


def assert_line_matches(payload, want):
    """A JSON metric line holds each value rounded to 9 significant digits."""
    for key, value in payload.items():
        if key != "config":
            assert value == (None if want[key] is None else float(nine(want[key]))), key


def draw_word_data(data):
    """Spaced or unspaced train lines, and test lines with their gold tokens,
    or test lines of nothing but whitespace, which hold no token at any peak."""
    train = TextCorpus(tuple(line for line, _ in data.draw(st.lists(LINES, min_size=2, max_size=8))))
    if data.draw(st.booleans()):
        drawn = data.draw(st.lists(LINES, min_size=1, max_size=5))
        test = TextCorpus(tuple(line for line, _ in drawn))
        gold = GoldSegmentation(tuple(tokens for _, tokens in drawn))
    else:
        test = TextCorpus(tuple(data.draw(st.lists(WIDE_SEPARATORS.filter(bool), min_size=1, max_size=3))))
        gold = GoldSegmentation(tuple(() for _ in test.lines))
    return train, test, gold


def draw_morph_data(data):
    """A frequency lexicon, and an affix inventory of some of its words' first and last two letters."""
    words = data.draw(st.lists(st.text(alphabet="abcd", min_size=1, max_size=7), min_size=1, max_size=8, unique=True))
    lexicon = FreqLexicon({word: data.draw(st.integers(1, 5)) for word in words})
    long_words = [word for word in words if len(word) > 2]
    prefixes = suffixes = frozenset()
    if long_words:
        prefixes = data.draw(st.frozensets(st.sampled_from([word[:2] for word in long_words])))
        suffixes = data.draw(st.frozensets(st.sampled_from([word[-2:] for word in long_words])))
    return lexicon, AffixInventory(prefixes, suffixes, min_stem=data.draw(st.integers(1, 3)))


class TestReference:
    def test_self_checks_pass(self):
        assert Path(reference.__file__).resolve() == REFERENCE_PY
        reference.self_check()

    def test_imports_only_the_standard_library(self):
        imported = set()
        for node in ast.walk(ast.parse(REFERENCE_PY.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                assert node.level == 0 and node.module is not None
                imported.add(node.module.split(".")[0])
        assert imported and imported <= sys.stdlib_module_names


class TestWordGrid:
    @settings(max_examples=60)
    @given(data=st.data())
    def test_every_row_equals_the_oracle(self, data):
        train, test, gold = draw_word_data(data)
        n_values, prune_values, modes = draw_axes(data)
        models = [build_model(train, 3)]
        spec = GridSpec(n_values, draw_peaks(data, models, test.lines, n_values), prune_values, modes)
        records = run_grid(train, test, gold, spec)
        assert_rows_match(records, lambda *point: word_row(train.lines, test.lines, gold.lines, *point))

    @CLI_SETTINGS
    @given(data=st.data())
    def test_every_evaluate_line_equals_the_oracle(self, tmp_path, capsys, data):
        # build-model, tokenize and evaluate --metrics all, each reading the files the last one wrote
        train, test, gold = draw_word_data(data)
        n, prune = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 2))
        mode = data.draw(st.sampled_from(MODES))
        peak = data.draw(st.sampled_from(draw_peaks(data, [build_model(train, 3)], test.lines, (n,))))
        paths = {name: tmp_path / f"{name}.txt" for name in ("train", "test", "gold", "pred", "model")}
        save_text(train, paths["train"])
        save_text(test, paths["test"])
        # gold words need no escape; a line without one is written as its whitespace, which reads back
        # as no token, where an empty line would be dropped
        save_text(TextCorpus(tuple(" ".join(t) or line for line, t in zip(test.lines, gold.lines))), paths["gold"])
        params = ["--n", str(n), "--peak", repr(peak), "--prune", str(prune), "--mode", mode]
        assert main(["build-model", "--in", str(paths["train"]), "--n-max", "3", "--out", str(paths["model"])]) == 0
        assert main(["tokenize", "--model", str(paths["model"]), *params, str(paths["test"]),
                     "--out", str(paths["pred"])]) == 0
        capsys.readouterr()
        code = main(["evaluate", "--pred", str(paths["pred"]), "--gold", str(paths["gold"]),
                     "--train", str(paths["train"]), "--test", str(paths["test"]), *params,
                     "--metrics", "all", "--n-max", "3"])
        out, err = capsys.readouterr()
        want = word_row(train.lines, test.lines, gold.lines, n, peak, prune, mode)
        if want is None:
            assert code == 2 and json.loads(err)["error"] == "DataError"
        else:
            assert code == 0
            payload = json.loads(out)
            assert payload.keys() - {"config"} == set(MetricsReport._fields)
            assert_line_matches(payload, want)

    @given(st.lists(st.text(alphabet="ab \t\u3000\x85\u2028\x1c\\", max_size=4), max_size=5),
           st.sets(st.integers(0, 20)), st.integers(1, 3))
    def test_boundary_counts_equal_the_tally(self, tokens, cuts, lines):
        # one drawn token line against the same text cut elsewhere, empty and whitespace-only tokens included
        line = "".join(tokens)
        recut = reference.split_at(line, sorted(c for c in cuts if 0 < c < len(line)))
        pred, ref = [tokens] * lines, [recut] * lines
        assert tuple(boundary_counts(pred, ref)) == reference.boundary_tally(pred, ref)
        assert tuple(boundary_counts(ref, pred)) == reference.boundary_tally(ref, pred)


class TestMorphGrid:
    @settings(max_examples=60)
    @given(data=st.data())
    def test_every_row_equals_the_oracle(self, data):
        lexicon, inventory = draw_morph_data(data)
        words, freqs = list(lexicon.entries), list(lexicon.entries.values())
        n_values, prune_values, modes = draw_axes(data)
        spec = GridSpec(n_values, draw_peaks(data, [build_morph_model(lexicon, 3)], words, n_values),
                        prune_values, modes)
        records = run_morph_grid(lexicon, inventory, spec)
        parses = [greedy_parse(word, inventory) for word in words]
        assert_rows_match(records, lambda *point: morph_row(words, freqs, parses, *point))

    @CLI_SETTINGS
    @given(data=st.data())
    def test_every_morph_eval_line_equals_the_oracle(self, tmp_path, capsys, data):
        lexicon, inventory = draw_morph_data(data)
        words, freqs = list(lexicon.entries), list(lexicon.entries.values())
        n, prune = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 2))
        mode = data.draw(st.sampled_from(MODES))
        peak = data.draw(st.sampled_from(draw_peaks(data, [build_morph_model(lexicon, 3)], words, (n,))))
        files = {"lexicon": [f"{w}\t{c}" for w, c in lexicon.entries.items()],
                 "prefixes": sorted(inventory.prefixes), "suffixes": sorted(inventory.suffixes)}
        for name, lines in files.items():
            save_text(TextCorpus(tuple(lines)), tmp_path / f"{name}.txt")
        capsys.readouterr()
        assert main(["morph-eval", *(f"--{name}={tmp_path / f'{name}.txt'}" for name in files),
                     "--min-stem", str(inventory.min_stem), "--n", str(n), "--peak", repr(peak),
                     "--prune", str(prune), "--mode", mode, "--n-max", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload.keys() == {"f1", "anti_entropy", "compression_factor", "avg2", "product", "config"}
        parses = [greedy_parse(word, inventory) for word in words]
        assert_line_matches(payload, morph_row(words, freqs, parses, n, peak, prune, mode))
