import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from tlab import cli
from tlab.cli import main
from tlab.corpus import DataError, TextCorpus, format_segmented, load_text, save_segmented, save_text
from tlab.lab import GridSpec
from tlab.metrics import MetricsReport
from tlab.morphology import build_morph_model
from tlab.ngram import check_order, load_model
from tlab.segmenter import MODES, SegmenterParams, segment_corpus
from tlab.synth import make_affixed_lexicon, make_segmented_corpus, make_vocabulary


@pytest.fixture
def word_data(tmp_path):
    words, weights = make_vocabulary(5, size=12, min_len=2, max_len=4, alphabet="abcdef")
    train, _ = make_segmented_corpus(words, weights, 11, lines=60, min_words=3, max_words=6)
    test, gold = make_segmented_corpus(words, weights, 12, lines=10, min_words=3, max_words=6)
    paths = {
        "train": tmp_path / "train.txt",
        "test": tmp_path / "test.txt",
        "gold": tmp_path / "gold.txt",
    }
    save_text(train, paths["train"])
    save_text(test, paths["test"])
    save_segmented(gold.lines, paths["gold"])
    return paths


def test_unknown_flag_exits_one(capsys):
    assert main(["--bogus-flag", "build-model"]) == 1
    assert "usage" in capsys.readouterr().err


def test_missing_subcommand_exits_one():
    assert main([]) == 1


RETIRED_FLAGS = ("--span-f1", "--keep-ws-tokens", "--timings")


@pytest.mark.parametrize("command,flag", [("evaluate", "--span-f1"), ("evaluate", "--keep-ws-tokens"),
                                          ("grid-search", "--timings"), ("morph-grid", "--timings")])
def test_retired_flag_is_a_usage_error(word_data, morph_files, tmp_path, capsys, command, flag):
    # each command line is valid but for the retired flag, which fails it before anything is read or written
    lex_path, suffix_path = morph_files
    argv = {
        "evaluate": ["evaluate", "--pred", str(word_data["gold"]), "--gold", str(word_data["gold"])],
        "grid-search": ["grid-search", "--train", str(word_data["train"]), "--test", str(word_data["test"]),
                        "--gold", str(word_data["gold"]), "--n-max", "1",
                        "--grid", "n=1;peak=0.5;prune=0;mode=union", "--out-csv", str(tmp_path / "out.csv")],
        "morph-grid": ["morph-grid", "--lexicon", str(lex_path), "--suffixes", str(suffix_path), "--n-max", "1",
                       "--grid", "n=1;peak=0.5;prune=0;mode=union", "--out-csv", str(tmp_path / "out.csv")],
    }[command]
    before = sorted(tmp_path.iterdir())
    assert main([*argv, flag]) == 1
    captured = capsys.readouterr()
    assert f"unrecognized arguments: {flag}" in captured.err
    assert captured.out == ""
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("command", ["build-model", "tokenize", "evaluate", "grid-search", "morph-eval", "morph-grid"])
def test_help_names_no_retired_flag(capsys, command):
    assert main([command, "--help"]) == 0
    text = capsys.readouterr().out
    assert f"usage: tlab {command}" in text
    assert not [flag for flag in RETIRED_FLAGS if flag in text]


def test_missing_file_is_data_error(tmp_path, capsys):
    code = main(["build-model", "--in", str(tmp_path / "nope.txt"), "--n-max", "2",
                 "--out", str(tmp_path / "m.tsv")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "error" in err and "message" in err


def test_build_tokenize_round_trip(word_data, tmp_path, capsys):
    model_path = tmp_path / "m.tsv"
    out_path = tmp_path / "tokens.txt"
    assert main(["build-model", "--in", str(word_data["train"]), "--n-max", "3",
                 "--out", str(model_path)]) == 0
    assert model_path.exists()
    assert main(["tokenize", "--model", str(model_path), "--n", "2", "--peak", "0.4",
                 "--prune", "0", "--mode", "union", str(word_data["test"]),
                 "--out", str(out_path)]) == 0
    produced = out_path.read_text(encoding="utf-8").splitlines()
    raw = word_data["test"].read_text(encoding="utf-8").splitlines()
    assert len(produced) == len(raw)
    for seg_line, raw_line in zip(produced, raw):
        rebuilt = "".join(seg_line.split()).replace("\\s", " ")
        assert rebuilt.replace(" ", "") == raw_line.replace(" ", "")
    capsys.readouterr()


def test_model_with_literal_hex_like_gram_loads(tmp_path, capsys):
    corpus_path = tmp_path / "x.txt"
    corpus_path.write_text("ab x0a cd\n", encoding="utf-8")
    model_path = tmp_path / "m.tsv"
    assert main(["build-model", "--in", str(corpus_path), "--n-max", "3",
                 "--out", str(model_path)]) == 0
    assert main(["tokenize", "--model", str(model_path), "--n", "3", "--peak", "0.5",
                 str(corpus_path)]) == 0
    capsys.readouterr()


def test_tokenize_rejects_duplicate_model_record(tmp_path, capsys):
    corpus_path = tmp_path / "c.txt"
    corpus_path.write_text("ab\n", encoding="utf-8")
    model_path = tmp_path / "m.tsv"
    model_path.write_text("tlab-model v1 n_max=1\nb\t1\tb\ta\t2\nf\t1\ta\tb\t1\nf\t1\ta\tb\t2\n", encoding="utf-8")
    assert main(["tokenize", "--model", str(model_path), "--n", "1", "--peak", "0.5",
                 str(corpus_path)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ModelFormatError"
    assert err["message"] == f"{model_path}:4: duplicate record"


def test_tokenize_reads_only_its_order_of_the_model(word_data, tmp_path, capsys):
    # a record corrupt in order 1 fails a tokenize at --n 1, and one at --n 2 tokenizes as from the clean file
    model_path, out_path = tmp_path / "m.tsv", tmp_path / "tokens.txt"
    assert main(["build-model", "--in", str(word_data["train"]), "--n-max", "3", "--out", str(model_path)]) == 0
    tokenize = ["tokenize", "--model", str(model_path), "--peak", "0.4", str(word_data["test"]), "--out", str(out_path)]
    assert main([*tokenize, "--n", "2"]) == 0
    clean = out_path.read_bytes()
    lines = model_path.read_text(encoding="utf-8").splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if line.startswith("f\t1\t"))
    lines[i] = lines[i].rsplit("\t", 1)[0] + "\t0\n"
    model_path.write_text("".join(lines), encoding="utf-8")
    out_path.unlink()
    assert main([*tokenize, "--n", "2"]) == 0
    assert out_path.read_bytes() == clean
    capsys.readouterr()
    assert main([*tokenize, "--n", "1"]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["message"] == f"{model_path}:{i + 1}: count must be positive"


def test_tokenize_evaluate_keeps_backslashes(tmp_path, capsys):
    corpus_path = tmp_path / "win.txt"
    corpus_path.write_text("C:\\sdir x\nC:\\sdir\n", encoding="utf-8")
    model_path = tmp_path / "m.tsv"
    pred_path = tmp_path / "pred.txt"
    assert main(["build-model", "--in", str(corpus_path), "--n-max", "2",
                 "--out", str(model_path)]) == 0
    assert main(["tokenize", "--model", str(model_path), "--n", "1", "--peak", "0.5",
                 str(corpus_path), "--out", str(pred_path)]) == 0
    capsys.readouterr()
    # gold files share the tokenized format's escapes
    gold_path = tmp_path / "gold.txt"
    save_segmented([("C:\\sdir", "x"), ("C:\\sdir",)], gold_path)
    assert main(["evaluate", "--pred", str(pred_path), "--gold", str(gold_path),
                 "--metrics", "f1"]) == 0
    assert json.loads(capsys.readouterr().out.strip())["f1"] is not None


def test_tokenize_stdout_matches_out_file(tmp_path, capsys):
    corpus_path = tmp_path / "corpus.txt"
    corpus_path.write_text("C:\\dir\tab\u3000cd\nab\u3000cd ab\n", encoding="utf-8")
    model_path = tmp_path / "m.tsv"
    pred_path = tmp_path / "pred.txt"
    assert main(["build-model", "--in", str(corpus_path), "--n-max", "2",
                 "--out", str(model_path)]) == 0
    params = ["--n", "1", "--peak", "0.5", str(corpus_path)]
    assert main(["tokenize", "--model", str(model_path), *params, "--out", str(pred_path)]) == 0
    capsys.readouterr()
    assert main(["tokenize", "--model", str(model_path), *params]) == 0
    printed = capsys.readouterr().out
    assert printed == pred_path.read_bytes().decode("utf-8")
    assert all(escape in printed for escape in ("\\\\", "\\u0009", "\\u3000"))


def test_evaluate_scores_backslash_gold(tmp_path, capsys):
    gold_path = tmp_path / "gold.txt"
    save_segmented([("C:\\dir", "x"), ("a\\", "b")], gold_path)
    assert main(["evaluate", "--pred", str(gold_path), "--gold", str(gold_path),
                 "--metrics", "f1"]) == 0
    assert json.loads(capsys.readouterr().out.strip())["f1"] == 1.0


def test_grid_search_scores_backslash_gold(tmp_path, capsys):
    # renaming a character changes no metric, so the backslash run must
    # produce the same trial rows as the run with "/" in its place
    words = ("C:\\dir", "x", "ab\\", "yz")
    train = [" ".join(words[i % 4] for i in range(k, k + 5)) for k in range(12)]
    test = [(words[k % 4], words[(k + 1) % 4], words[(k + 3) % 4]) for k in range(6)]
    rows = []
    for name, char in (("bs", "\\"), ("slash", "/")):
        swap = str.maketrans("\\", char)
        save_text(TextCorpus(tuple(line.translate(swap) for line in train)), tmp_path / f"{name}-train.txt")
        save_text(TextCorpus(tuple(" ".join(t).translate(swap) for t in test)), tmp_path / f"{name}-test.txt")
        save_segmented([[w.translate(swap) for w in t] for t in test], tmp_path / f"{name}-gold.txt")
        out_csv = tmp_path / f"{name}.csv"
        assert main(["grid-search", "--train", str(tmp_path / f"{name}-train.txt"),
                     "--test", str(tmp_path / f"{name}-test.txt"),
                     "--gold", str(tmp_path / f"{name}-gold.txt"), "--n-max", "2",
                     "--grid", "n=1,2;peak=0:0.6:0.3;prune=0;mode=fwd,union",
                     "--out-csv", str(out_csv)]) == 0
        rows.append(out_csv.read_text(encoding="utf-8").splitlines()[1:])
    capsys.readouterr()
    assert rows[0] == rows[1]
    assert all(row.endswith(",0,") for row in rows[0][1:])  # no trial failed


def test_whitespace_only_line_scores_through_files(tmp_path, capsys):
    # the test file keeps its whitespace-only line, so the gold file must too
    (tmp_path / "train.txt").write_text("ab cd\nab ab\ncd ab\n", encoding="utf-8")
    for name in ("test", "gold"):
        (tmp_path / f"{name}.txt").write_text("ab cd\n   \ncd ab\n", encoding="utf-8")
    train, test, gold = (str(tmp_path / f"{name}.txt") for name in ("train", "test", "gold"))
    out_csv = tmp_path / "t.csv"
    assert main(["grid-search", "--train", train, "--test", test, "--gold", gold, "--n-max", "1",
                 "--grid", "n=1;peak=0:0.6:0.3;prune=0;mode=fwd,union", "--out-csv", str(out_csv)]) == 0
    assert all(row.endswith(",0,") for row in out_csv.read_text(encoding="utf-8").splitlines()[2:])
    capsys.readouterr()
    assert main(["evaluate", "--pred", test, "--gold", gold, "--metrics", "f1"]) == 0
    assert json.loads(capsys.readouterr().out.strip())["f1"] == 1.0


def test_evaluate_csf1_order_above_n_max_is_data_error(word_data, tmp_path, capsys):
    pred_path = tmp_path / "pred.txt"
    save_segmented([("ab", "cd")], pred_path)
    assert main(["evaluate", "--pred", str(pred_path), "--train", str(word_data["train"]),
                 "--test", str(word_data["test"]), "--metrics", "csf1",
                 "--n", "9", "--peak", "0.5"]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "DataError" and "9" in err["message"]


@pytest.mark.parametrize("command", ["evaluate-csf1", "evaluate-all", "grid-search", "morph-eval", "morph-grid"])
def test_order_above_n_max_is_rejected_where_the_flag_is_read(word_data, morph_files, tmp_path, capsys, command):
    with pytest.raises(DataError) as expected:
        check_order(3, 2)
    data = ["--train", str(word_data["train"]), "--test", str(word_data["test"])]
    lexicon = ["--lexicon", str(morph_files[0]), "--suffixes", str(morph_files[1])]
    grid = ["--grid", "n=1..3;peak=0.5;prune=0;mode=fwd", "--out-csv", str(tmp_path / "t.csv")]
    evaluate = ["evaluate", "--pred", str(word_data["gold"]), *data, "--n", "3", "--peak", "0.5"]
    argv = {
        "evaluate-csf1": [*evaluate, "--metrics", "csf1"],
        "evaluate-all": [*evaluate, "--gold", str(word_data["gold"]), "--metrics", "all"],
        "grid-search": ["grid-search", *data, "--gold", str(word_data["gold"]), *grid],
        "morph-eval": ["morph-eval", *lexicon, "--n", "3", "--peak", "0.5"],
        "morph-grid": ["morph-grid", *lexicon, *grid],
    }[command]
    before = sorted(tmp_path.iterdir())
    assert main([*argv, "--n-max", "2"]) == 2
    assert assert_data_error(capsys) == str(expected.value)
    assert sorted(tmp_path.iterdir()) == before


def test_evaluate_csf1_checks_the_order_after_reading_both_corpora(word_data, tmp_path, capsys):
    # a missing file is reported before an order above --n-max, and that order before an empty test corpus
    argv = ["evaluate", "--pred", str(word_data["gold"]), "--train", str(word_data["train"]),
            "--metrics", "csf1", "--n", "9", "--peak", "0.5"]
    assert main([*argv, "--test", str(tmp_path / "nope.txt")]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "FileNotFoundError"
    (tmp_path / "empty.txt").write_bytes(b"")
    assert main([*argv, "--test", str(tmp_path / "empty.txt")]) == 2
    assert assert_data_error(capsys) == "order 9 outside the model's range 1..7"


def test_evaluate_emits_single_line_json(word_data, tmp_path, capsys):
    model_path = tmp_path / "m.tsv"
    pred_path = tmp_path / "pred.txt"
    main(["build-model", "--in", str(word_data["train"]), "--n-max", "3", "--out", str(model_path)])
    main(["tokenize", "--model", str(model_path), "--n", "2", "--peak", "0.4",
          str(word_data["test"]), "--out", str(pred_path)])
    capsys.readouterr()
    code = main(["evaluate", "--pred", str(pred_path), "--gold", str(word_data["gold"]),
                 "--train", str(word_data["train"]), "--test", str(word_data["test"]),
                 "--metrics", "all", "--n", "2", "--peak", "0.4", "--n-max", "3"])
    assert code == 0
    out = capsys.readouterr().out.strip()
    assert "\n" not in out
    payload = json.loads(out)
    for key in ("f1", "anti_entropy", "compression_factor", "csf1", "avg3", "avg2", "product"):
        assert key in payload and payload[key] is not None
    assert payload["config"]["subcommand"] == "evaluate"


def test_evaluate_f1_only_requires_gold(word_data, tmp_path, capsys):
    pred_path = tmp_path / "pred.txt"
    save_segmented([("ab", "cd")], pred_path)
    assert main(["evaluate", "--pred", str(pred_path), "--metrics", "f1"]) == 1
    assert "gold" in capsys.readouterr().err


def test_grid_search_row_count_and_determinism(word_data, tmp_path, capsys):
    csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
    summary_path = tmp_path / "summary.json"
    grid = "n=1..2;peak=0:0.4:0.2;prune=0,1;mode=fwd,union"
    argv = ["grid-search", "--train", str(word_data["train"]), "--test", str(word_data["test"]),
            "--gold", str(word_data["gold"]), "--n-max", "2", "--grid", grid,
            "--out-csv", str(csv_a), "--out-summary", str(summary_path)]
    assert main(argv) == 0
    argv_b = argv.copy()
    argv_b[argv_b.index(str(csv_a))] = str(csv_b)
    assert main(argv_b) == 0
    capsys.readouterr()

    lines_a = csv_a.read_text(encoding="utf-8").splitlines()
    assert lines_a[0].startswith("# config:")
    assert len(lines_a) == 2 + 2 * 3 * 2 * 2  # comment + header + cardinality
    body_a = "\n".join(lines_a[1:])
    body_b = "\n".join(csv_b.read_text(encoding="utf-8").splitlines()[1:])
    assert body_a == body_b  # identical apart from the echoed output path

    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    assert "pearson_f1_vs" in summary and "argmax_params" in summary
    assert summary["config"]["grid"] == grid


def test_grid_search_sample_test(word_data, tmp_path, capsys):
    out_csv = tmp_path / "s.csv"
    argv = ["--seed", "9", "grid-search", "--train", str(word_data["train"]),
            "--test", str(word_data["test"]), "--gold", str(word_data["gold"]),
            "--n-max", "1", "--grid", "n=1;peak=0.5;prune=0;mode=union",
            "--sample-test", "4", "--out-csv", str(out_csv)]
    assert main(argv) == 0
    capsys.readouterr()
    assert out_csv.exists()


def assert_data_error(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    payload = json.loads(err[0])
    assert payload["error"] == "DataError" and payload["message"]
    return payload["message"]


BAD_MODES = ("forward", "sideways")  # a long direction name is no alias of its mode


@pytest.mark.parametrize("grid", [
    "n=a..b;peak=0.5;prune=0;mode=union",
    "n=1;peak=0:x:0.1;prune=0;mode=union",
    "n=1;peak=0:nan:0.1;prune=0;mode=union",
    "n=1;peak=0:inf:0.1;prune=0;mode=union",
    "n=1;peak=nan:1:0.1;prune=0;mode=union",
    "n=1;peak=0:1:inf;prune=0;mode=union",
    "n=1..3;peak=0.5;prune=0;mode=fwd;n=5",
    "n=1;peak=0.5;prune=0;mode=fwd;mode=union",
    *(f"n=1;peak=0.5;prune=0;mode={mode}" for mode in BAD_MODES),
])
def test_grid_search_bad_grid_is_data_error(word_data, tmp_path, capsys, grid):
    argv = ["grid-search", "--train", str(word_data["train"]), "--test", str(word_data["test"]),
            "--gold", str(word_data["gold"]), "--n-max", "1", "--grid", grid,
            "--out-csv", str(tmp_path / "t.csv")]
    assert main(argv) == 2
    message = assert_data_error(capsys)
    if grid.endswith(BAD_MODES):  # the message names the modes the grid syntax writes
        assert f"must be one of {MODES}, got {grid.rpartition('=')[2]!r}" in message


@pytest.mark.parametrize("grid", [
    "n=1..2000000000;peak=0.5;prune=0;mode=union",
    "n=1;peak=0:1e9:1;prune=0;mode=union",
    "n=1;peak=0.5;prune=0..2000000;mode=union",
    "n=1;peak=0:1:1e-6;prune=0;mode=union",
])
@pytest.mark.parametrize("command", ["grid-search", "morph-grid"])
def test_grid_range_outside_its_axis_is_rejected_before_listing(word_data, morph_files, tmp_path, capsys,
                                                                command, grid):
    # listing any of these ranges would take seconds to minutes and up to gigabytes;
    # its endpoints or its count alone rule it out
    inputs = {
        "grid-search": ["--train", str(word_data["train"]), "--test", str(word_data["test"]),
                        "--gold", str(word_data["gold"])],
        "morph-grid": ["--lexicon", str(morph_files[0]), "--suffixes", str(morph_files[1])],
    }[command]
    argv = [command, *inputs, "--n-max", "7", "--grid", grid, "--out-csv", str(tmp_path / "t.csv")]
    start = time.process_time()
    assert main(argv) == 2
    assert time.process_time() - start < 1.0
    assert_data_error(capsys)


@pytest.mark.parametrize("grid", ["n=1:3:0.5;peak=0.5;prune=0:1:0.5;mode=fwd", "n=1;peak=0.5;prune=0:1:0.5;mode=fwd",
                                  "n=1.5;peak=0.5;prune=0;mode=fwd"])
@pytest.mark.parametrize("command", ["grid-search", "morph-grid"])
def test_fractional_order_or_prune_is_data_error(word_data, morph_files, tmp_path, capsys, command, grid):
    # no syntax truncates 1.5 to 1: the grid is refused before anything is written
    inputs = {
        "grid-search": ["--train", str(word_data["train"]), "--test", str(word_data["test"]),
                        "--gold", str(word_data["gold"])],
        "morph-grid": ["--lexicon", str(morph_files[0]), "--suffixes", str(morph_files[1])],
    }[command]
    before = sorted(tmp_path.iterdir())
    assert main([command, *inputs, "--n-max", "3", "--grid", grid, "--out-csv", str(tmp_path / "t.csv"),
                 "--out-summary", str(tmp_path / "s.json")]) == 2
    assert_data_error(capsys)
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("count", ["-1", "0"])
def test_grid_search_sample_count_below_one_is_data_error(word_data, tmp_path, capsys, count):
    argv = ["grid-search", "--train", str(word_data["train"]), "--test", str(word_data["test"]),
            "--gold", str(word_data["gold"]), "--n-max", "1", "--grid", "n=1;peak=0.5;prune=0;mode=union",
            "--sample-test", count, "--out-csv", str(tmp_path / "t.csv")]
    assert main(argv) == 2
    assert_data_error(capsys)
    assert not (tmp_path / "t.csv").exists()


def test_grid_search_sample_with_misaligned_gold_is_data_error(tmp_path, capsys):
    (tmp_path / "train.txt").write_text("ab cd\ncd ab\nab\n", encoding="utf-8")
    (tmp_path / "test.txt").write_text("ab cd\nab\ncd ab\n", encoding="utf-8")
    (tmp_path / "gold.txt").write_text("ab cd\n", encoding="utf-8")
    argv = ["grid-search", "--train", str(tmp_path / "train.txt"), "--test", str(tmp_path / "test.txt"),
            "--gold", str(tmp_path / "gold.txt"), "--n-max", "1", "--grid", "n=1;peak=0.5;prune=0;mode=fwd",
            "--sample-test", "2", "--out-csv", str(tmp_path / "t.csv")]
    assert main(argv) == 2
    assert_data_error(capsys)


FUZZ_GRID = "n=1..2;peak=0:1:0.5;prune=0,1;mode=fwd,union"
MALFORMED_GRIDS = (
    "n=a..b;peak=0.5;prune=0;mode=fwd",
    "n=1;peak=0:x:0.1;prune=0;mode=fwd",
    "n=1;peak=0:nan:0.1;prune=0;mode=fwd",
    "n=2..1;peak=0.5;prune=0;mode=fwd",
    "n=1;peak=0.5;prune=0;mode=diagonal",
    "n=1;peak=0.5;prune=0",
    "n=1;peak=0:1:0;prune=0;mode=fwd",
    "n=1;peak=0.5;prune=x;mode=fwd",
    "garbage",
)


def small_or_huge(low, high):
    """Flag values: small ones mixed with values near 10**9."""
    return st.integers(low, high) | st.integers(10**9 - 2, 10**9 + 2)


# the most bytes a command may allocate at once: a constant, plus a multiple of the corpus bytes
PEAK_BYTES = 1_000_000
PEAK_BYTES_PER_CORPUS_BYTE = 10_000


def traced_main(argv):
    """``main(argv)`` and the peak bytes it allocates, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        code = main(argv)
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    corpus=st.one_of(
        st.binary(max_size=60),
        st.text(alphabet="ab \t\r\n\\x0", max_size=60).map(str.encode),
        st.lists(st.text(alphabet="abc\\x0", min_size=1, max_size=8), max_size=8).map("\n".join).map(str.encode),
    ),
    command=st.sampled_from(["tokenize", "evaluate", "grid-search", "morph-eval", "morph-grid"]),
    n=small_or_huge(0, 4),
    n_max=small_or_huge(0, 4),
    peak=st.sampled_from(["-1", "0", "0.5", "2"]),
    prune=small_or_huge(-1, 3),
    sample=small_or_huge(-1, 3),
    min_stem=small_or_huge(-1, 3),
    min_word_len=small_or_huge(-1, 3),
    grid=st.just(FUZZ_GRID) | st.sampled_from(MALFORMED_GRIDS),
)
def test_fuzzed_commands_keep_the_exit_code_contract(tmp_path, capsys, corpus, command, n, n_max, peak, prune,
                                                     sample, min_stem, min_word_len, grid):
    # any corpus bytes and any flag values, small or near 10**9: exit 0, 1 or
    # 2, never a traceback, a data error is one JSON object on stderr, and no
    # command allocates more than in proportion to its input
    capsys.readouterr()
    path = tmp_path / "corpus.txt"
    path.write_bytes(corpus)
    model = tmp_path / "model.tsv"
    params = ["--n", str(n), "--peak", peak, "--prune", str(prune)]
    morph = ["--min-stem", str(min_stem), "--min-word-len", str(min_word_len), "--n-max", str(n_max)]
    argv = {
        "tokenize": ["tokenize", "--model", str(model), *params, str(path)],
        "evaluate": ["evaluate", "--pred", str(path), "--gold", str(path), "--train", str(path),
                     "--test", str(path), *params, "--n-max", str(n_max)],
        "grid-search": ["grid-search", "--train", str(path), "--test", str(path), "--gold", str(path),
                        "--n-max", str(n_max), "--grid", grid, "--sample-test", str(sample),
                        "--out-csv", str(tmp_path / "t.csv"), "--out-summary", str(tmp_path / "s.json")],
        "morph-eval": ["morph-eval", "--lexicon", str(path), "--suffixes", str(path), *params, *morph],
        "morph-grid": ["morph-grid", "--lexicon", str(path), "--prefixes", str(path), "--grid", grid, *morph,
                       "--out-csv", str(tmp_path / "t.csv")],
    }[command]
    peaks = []
    if command == "tokenize":
        model.unlink(missing_ok=True)
        build, peak_bytes = traced_main(["build-model", "--in", str(path), "--n-max", str(n_max), "--out", str(model)])
        assert build in (0, 2)
        peaks.append(peak_bytes)
        capsys.readouterr()
    code, peak_bytes = traced_main(argv)
    peaks.append(peak_bytes)
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if code == 2:
        payload = json.loads(err.strip())
        assert set(payload) == {"error", "message"}
    assert max(peaks) <= PEAK_BYTES + PEAK_BYTES_PER_CORPUS_BYTE * len(corpus)


@pytest.fixture
def morph_files(tmp_path):
    lex, inv = make_affixed_lexicon(3, stems=6, suffixes=2)
    lex_path = tmp_path / "lexicon.txt"
    lex_path.write_text("".join(f"{w}\t{c}\n" for w, c in lex.entries.items()), encoding="utf-8")
    suffix_path = tmp_path / "suffixes.txt"
    suffix_path.write_text("# test suffixes\n" + "".join(f"{s}\n" for s in sorted(inv.suffixes)), encoding="utf-8")
    return lex_path, suffix_path


def test_morph_eval_json(morph_files, capsys):
    lex_path, suffix_path = morph_files
    code = main(["morph-eval", "--lexicon", str(lex_path), "--suffixes", str(suffix_path),
                 "--min-stem", "3", "--min-word-len", "0", "--n", "2", "--peak", "0.5",
                 "--prune", "0", "--n-max", "3"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out.strip())
    for key in ("f1", "anti_entropy", "compression_factor", "avg2", "product"):
        assert key in payload


def test_morph_eval_order_above_n_max_is_data_error(morph_files, capsys):
    lex_path, suffix_path = morph_files
    code = main(["morph-eval", "--lexicon", str(lex_path), "--suffixes", str(suffix_path),
                 "--n", "3", "--peak", "0.5", "--n-max", "2"])
    assert code == 2
    assert_data_error(capsys)


def test_morph_eval_counts_only_up_to_its_order(morph_files, capsys, monkeypatch):
    # only order --n is read, so the model is built up to --n, not --n-max
    built = []
    monkeypatch.setattr(cli, "build_morph_model", lambda lexicon, n_max: built.append(n_max) or
                        build_morph_model(lexicon, n_max))
    lex_path, suffix_path = morph_files
    assert main(["morph-eval", "--lexicon", str(lex_path), "--suffixes", str(suffix_path),
                 "--n", "2", "--peak", "0.5", "--n-max", "7"]) == 0
    assert built == [2]
    capsys.readouterr()


@pytest.mark.parametrize("metric,key", [("se", "anti_entropy"), ("cf", "compression_factor")])
def test_evaluate_single_metric(tmp_path, capsys, metric, key):
    pred_path = tmp_path / "pred.txt"
    save_segmented([("ab", "cd"), ("ab",)], pred_path)
    assert main(["evaluate", "--pred", str(pred_path), "--metrics", metric]) == 0
    payload = json.loads(capsys.readouterr().out.strip())
    assert payload[key] is not None
    assert payload["f1"] is None and payload["csf1"] is None


def test_morph_eval_with_prefix_file(tmp_path, capsys):
    lex_path = tmp_path / "lex.txt"
    lex_path.write_text("unzip\t4\nunfold\t2\nzip\t1\n", encoding="utf-8")
    prefix_path = tmp_path / "pre.txt"
    prefix_path.write_text("un\n", encoding="utf-8")
    code = main(["morph-eval", "--lexicon", str(lex_path), "--prefixes", str(prefix_path),
                 "--min-stem", "3", "--n", "1", "--peak", "0.5", "--n-max", "2"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out.strip())
    assert 0.0 <= payload["f1"] <= 1.0


def test_morph_grid_csv(morph_files, tmp_path, capsys):
    lex_path, suffix_path = morph_files
    out_csv = tmp_path / "morph.csv"
    code = main(["morph-grid", "--lexicon", str(lex_path), "--suffixes", str(suffix_path),
                 "--grid", "n=1..2;peak=0.3,0.7;prune=0;mode=union", "--n-max", "2",
                 "--out-csv", str(out_csv)])
    assert code == 0
    capsys.readouterr()
    lines = out_csv.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2 + 2 * 2
    first = lines[2].split(",")
    assert first[8] == "" and first[9] == ""  # csf1 and avg3 not applicable


def grid_rows(csv_path):
    """The trial rows of a grid CSV, keyed by (n, peak, prune, mode) as written."""
    lines = csv_path.read_text(encoding="utf-8").splitlines()[1:]  # past the config comment
    return {(row["n"], row["peak"], row["prune"], row["mode"]): row for row in csv.DictReader(lines)}


def assert_row_matches(row, payload, keys):
    assert row["error"] == ""
    for key in keys:
        assert (None if row[key] == "" else float(row[key])) == payload[key], key


@pytest.mark.parametrize("spaces", [True, False])
def test_evaluate_matches_the_grid_search_row(tmp_path, capsys, spaces):
    # tokenize then evaluate --metrics all reports, to 9 significant digits,
    # every metric of the grid-search row at the same grid point
    words, weights = make_vocabulary(5, size=12, min_len=2, max_len=4, alphabet="abcdef")
    train, _ = make_segmented_corpus(words, weights, 11, lines=60, min_words=3, max_words=6, spaces=spaces)
    test, gold = make_segmented_corpus(words, weights, 12, lines=10, min_words=3, max_words=6, spaces=spaces)
    paths = {name: tmp_path / f"{name}.txt" for name in ("train", "test", "gold", "pred")}
    save_text(train, paths["train"])
    save_text(test, paths["test"])
    save_segmented(gold.lines, paths["gold"])
    model, out_csv = tmp_path / "model.tsv", tmp_path / "trials.csv"
    data = ["--train", str(paths["train"]), "--test", str(paths["test"]), "--gold", str(paths["gold"])]
    assert main(["grid-search", *data, "--n-max", "3", "--out-csv", str(out_csv),
                 "--grid", "n=1..3;peak=0.2,0.5;prune=0,2;mode=fwd,bwd,union"]) == 0
    assert main(["build-model", "--in", str(paths["train"]), "--n-max", "3", "--out", str(model)]) == 0
    rows = grid_rows(out_csv)
    for n, peak, prune, mode in (("1", "0.5", "0", "union"), ("2", "0.2", "2", "fwd"),
                                 ("3", "0.5", "0", "bwd"), ("3", "0.2", "2", "union")):
        params = ["--n", n, "--peak", peak, "--prune", prune, "--mode", mode]
        assert main(["tokenize", "--model", str(model), *params, str(paths["test"]),
                     "--out", str(paths["pred"])]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--pred", str(paths["pred"]), *data, "--metrics", "all", *params,
                     "--n-max", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert_row_matches(rows[n, peak, prune, mode], payload, MetricsReport._fields)


def test_morph_eval_matches_the_morph_grid_row(morph_files, tmp_path, capsys):
    lex_path, suffix_path = morph_files
    out_csv = tmp_path / "trials.csv"
    common = ["--lexicon", str(lex_path), "--suffixes", str(suffix_path), "--min-stem", "2",
              "--min-word-len", "3", "--n-max", "3"]
    assert main(["morph-grid", *common, "--out-csv", str(out_csv),
                 "--grid", "n=1..3;peak=0.3,0.7;prune=0,3;mode=fwd,bwd,union"]) == 0
    rows = grid_rows(out_csv)
    for n, peak, prune, mode in (("1", "0.3", "0", "union"), ("2", "0.7", "3", "fwd"), ("2", "0.3", "3", "bwd")):
        capsys.readouterr()
        assert main(["morph-eval", *common, "--n", n, "--peak", peak, "--prune", prune, "--mode", mode]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"f1", "anti_entropy", "compression_factor", "avg2", "product", "config"}
        assert_row_matches(rows[n, peak, prune, mode], payload, set(payload) - {"config"})


def test_run_parameters_have_one_vocabulary(word_data, tmp_path, capsys):
    # the four parameters keep their names, and each mode its spelling, from the
    # tokenize flag through the grid spec to the trial CSV and the summary JSON
    model, out_csv, out_summary = tmp_path / "model.tsv", tmp_path / "trials.csv", tmp_path / "summary.json"
    data = ["--train", str(word_data["train"]), "--test", str(word_data["test"]), "--gold", str(word_data["gold"])]
    assert main(["build-model", "--in", str(word_data["train"]), "--n-max", "2", "--out", str(model)]) == 0
    for mode in MODES:
        capsys.readouterr()
        assert main(["tokenize", "--model", str(model), "--n", "2", "--peak", "0.4", "--mode", mode,
                     str(word_data["test"])]) == 0
        expected = segment_corpus(load_model(model, (2,)), load_text(word_data["test"]), SegmenterParams(2, 0.4, 0, mode))
        assert capsys.readouterr().out == format_segmented(expected)
        assert main(["grid-search", *data, "--n-max", "2", "--grid", f"n=1,2;peak=0.2,0.6;prune=0;mode={mode}",
                     "--out-csv", str(out_csv), "--out-summary", str(out_summary)]) == 0
        header = out_csv.read_text(encoding="utf-8").splitlines()[1].split(",")
        assert SegmenterParams._fields == GridSpec._fields == tuple(header[:4])
        assert {params[-1] for params in grid_rows(out_csv)} == {mode}
        argmax = json.loads(out_summary.read_text(encoding="utf-8"))["argmax_params"]
        assert all(params.keys() == set(SegmenterParams._fields) for params in argmax.values())
        assert {params["mode"] for params in argmax.values()} == {mode}


def test_tokenize_stdout_is_utf8_whatever_the_stdout_encoding(tmp_path):
    # standard output carries the bytes --out writes, even where the locale's encoding cannot encode them
    corpus_path, model_path, out_path = tmp_path / "corpus.txt", tmp_path / "m.tsv", tmp_path / "out.txt"
    corpus_path.write_text("héllo wörld\nwörld héllo\n", encoding="utf-8")
    assert main(["build-model", "--in", str(corpus_path), "--n-max", "2", "--out", str(model_path)]) == 0
    argv = ["tokenize", "--model", str(model_path), "--n", "1", "--peak", "0.5", str(corpus_path)]
    assert main([*argv, "--out", str(out_path)]) == 0
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONIOENCODING="ascii", PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", "from tlab.cli import run; run()", *argv],
                          env=env, capture_output=True)
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == out_path.read_bytes()
    assert "é".encode("utf-8") in done.stdout


def test_tokenize_to_a_text_only_stdout(tmp_path):
    # a standard output with no byte stream, as an in-process caller may redirect it, takes the text --out holds
    corpus_path, model_path, out_path = tmp_path / "corpus.txt", tmp_path / "m.tsv", tmp_path / "out.txt"
    corpus_path.write_text("héllo wörld\tx\nwörld héllo\n", encoding="utf-8")
    assert main(["build-model", "--in", str(corpus_path), "--n-max", "2", "--out", str(model_path)]) == 0
    argv = ["tokenize", "--model", str(model_path), "--n", "1", "--peak", "0.5", str(corpus_path)]
    assert main([*argv, "--out", str(out_path)]) == 0
    stream = io.StringIO()
    with contextlib.redirect_stdout(stream):
        status = main(argv)
    assert status == 0
    assert stream.getvalue() == out_path.read_bytes().decode("utf-8")


@pytest.mark.parametrize("script, args, error", [
    ("run_word_grid.py", ["--words", "4000000"], "DataError"),
    ("run_word_grid.py", ["--lines", "10", "--test-lines", "5", "--grid", "n=1;peak=0.5;prune=0;mode=sideways"],
     "DataError"),
    ("run_morph_grid.py", ["--stems", "10000000"], "DataError"),
    ("run_morph_grid.py", ["--out-dir", "taken/mg"], "NotADirectoryError"),
])
def test_experiment_scripts_fail_as_the_command_line_does(tmp_path, script, args, error):
    # a data or I/O error ends in one JSON line on stderr and exit status 2, not a traceback
    (tmp_path / "taken").write_bytes(b"")
    scripts = Path(__file__).resolve().parent.parent / "scripts"
    done = subprocess.run([sys.executable, str(scripts / script), *args], cwd=tmp_path, capture_output=True)
    assert done.returncode == 2
    [line] = done.stderr.decode("utf-8").splitlines()
    assert json.loads(line)["error"] == error
