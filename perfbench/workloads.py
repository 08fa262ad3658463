"""The benchmark's workloads: seeded inputs, the tlab commands, and output checks.

Each workload writes its inputs with ``tlab.synth`` and ``tlab.corpus`` into
an inputs directory, runs its commands from a sibling directory (so that the
paths echoed into the outputs are the same in every round), and checks the
outputs of one round against ``reference``, which shares no code with tlab.
"""

from __future__ import annotations

import bisect
import csv
import json
import random
from collections import Counter
from itertools import accumulate
from pathlib import Path

from tlab.corpus import TextCorpus, save_segmented, save_text
from tlab.synth import make_affixed_lexicon, make_segmented_corpus, make_vocabulary

import reference

INPUTS = "../inputs"
# The language (the vocabulary of scripts/run_word_grid.py, the lexicon's
# stems and suffixes) does not change with the run's seed, which draws only
# the lines and the word counts: a vocabulary drawn per seed changes word
# lengths and with them the work of a round by up to half, so runs on
# different seeds would not be comparable.
LANGUAGE_SEED = 42
METRIC_COLUMNS = ("anti_entropy", "compression_factor", "reciprocal_cf", "csf1", "avg3", "avg2", "product")
# grid points per run whose metrics the reference recomputes
SAMPLED_POINTS = 4


def read_lines(path: Path) -> list[str]:
    return [line for line in path.read_text(encoding="utf-8").split("\n") if line]


class Workload:
    name = ""
    trials = 1  # segmenter configurations one round scores
    outputs: tuple[str, ...] = ()  # files one round writes, compared byte for byte

    def setup(self, inputs: Path, seed: int) -> None:
        raise NotImplementedError

    def commands(self) -> list[list[str]]:
        raise NotImplementedError

    def check(self, inputs: Path, out: Path, seed: int) -> list[str]:
        """Problems found in the outputs under ``out``; empty when all agree."""
        raise NotImplementedError


class GridWorkload(Workload):
    """A grid command whose trial CSV and summary are checked row by row."""

    outputs = ("trials.csv", "summary.json")
    axes: tuple[tuple, tuple, tuple, tuple] = ((), (), (), ())
    has_csf1 = True

    def check(self, inputs: Path, out: Path, seed: int) -> list[str]:
        with open(out / "trials.csv", encoding="utf-8", newline="") as fh:
            if not fh.readline().startswith("# config: "):
                return ["trials.csv has no config comment"]
            rows = list(csv.DictReader(fh))
        problems = self.check_rows(rows)
        if problems:
            return problems
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        problems += self.check_summary(rows, summary)
        for row in random.Random(seed).sample(rows, SAMPLED_POINTS):
            point = (int(row["n"]), float(row["peak"]), int(row["prune"]), row["mode"])
            for column, value in self.reference_point(inputs, *point).items():
                if row[column] != format(value, ".9g"):  # equal to 9 significant digits
                    problems.append(f"{column} at {point}: program {row[column]}, reference {value:.9g}")
        return problems

    def check_rows(self, rows: list[dict]) -> list[str]:
        ns, peaks, prunes, modes = self.axes
        expected = {(str(n), format(p, ".9g"), str(t), m) for n in ns for p in peaks for t in prunes for m in modes}
        found = [(r["n"], r["peak"], r["prune"], r["mode"]) for r in rows]
        if len(found) != len(expected) or set(found) != expected:
            return [f"{len(found)} rows do not cover the {len(expected)} grid points once each"]
        problems = []
        for r in rows:
            point = (r["n"], r["peak"], r["prune"], r["mode"])
            if r["error"]:
                problems.append(f"trial {point} failed: {r['error']}")
                continue
            f1, ae, cf, rcf, avg2, product = (float(r[k]) for k in (
                "f1", "anti_entropy", "compression_factor", "reciprocal_cf", "avg2", "product"))
            ok = (
                0.0 <= f1 <= 1.0 and 0.0 <= ae <= 1.0 and 0.0 < cf <= 2.0
                and abs(rcf * cf - 1.0) <= 1e-8
                and abs(avg2 - (ae + cf) / 2) <= 1e-8
                and abs(product - ae * cf) <= 1e-8
            )
            if self.has_csf1:
                csf1, avg3 = float(r["csf1"]), float(r["avg3"])
                ok = ok and 0.0 <= csf1 <= 1.0 and abs(avg3 - (ae + cf + csf1) / 3) <= 1e-8
            else:
                ok = ok and r["csf1"] == "" and r["avg3"] == ""
            if not ok:
                problems.append(f"trial {point} has inconsistent metrics: {r}")
        return problems

    def check_summary(self, rows: list[dict], summary: dict) -> list[str]:
        problems = []
        f1s = [float(r["f1"]) for r in rows]
        for column in METRIC_COLUMNS:
            got_r = summary["pearson_f1_vs"][column]
            got_arg = summary["argmax_params"][column]
            if rows[0][column] == "":
                if got_r is not None or got_arg is not None:
                    problems.append(f"summary scores the empty column {column}")
                continue
            values = [float(r[column]) for r in rows]
            want_r = reference.pearson(f1s, values)
            if (got_r is None) != (want_r is None) or (want_r is not None and abs(got_r - want_r) > 1e-6):
                problems.append(f"pearson(f1, {column}): summary {got_r}, recomputed {want_r}")
            best = [r for r in rows if (int(r["n"]), float(r["peak"]), int(r["prune"]), r["mode"])
                    == (got_arg["n"], got_arg["peak"], got_arg["prune"], got_arg["mode"])]
            if len(best) != 1 or float(best[0][column]) != max(values):
                problems.append(f"argmax of {column} in the summary is not a maximal row")
        return problems

    def reference_point(self, inputs: Path, n: int, peak: float, prune: int, mode: str) -> dict[str, float]:
        raise NotImplementedError


class WordGrid(GridWorkload):
    """The default 420-trial sweep on 1,000 train lines and 1,750 test characters of a spaced language."""

    name = "word-grid"
    trials = 420
    TEST_CHARS = 1750
    axes = (range(1, 8), [round(k * 0.1, 10) for k in range(10)], (0, 2, 5), ("fwd", "union"))

    def setup(self, inputs: Path, seed: int) -> None:
        words, weights = make_vocabulary(LANGUAGE_SEED, size=50)
        train, _ = make_segmented_corpus(words, weights, seed + 1, lines=1000)
        test, gold = make_segmented_corpus(words, weights, seed + 2, lines=100)
        # the test lines that fit in TEST_CHARS: the work of a round grows with
        # the test text, and 50 whole lines vary in length by 7% between seeds
        keep = bisect.bisect_right(list(accumulate(map(len, test.lines))), self.TEST_CHARS)
        save_text(TextCorpus(test.lines[:keep]), inputs / "test.txt")
        save_text(train, inputs / "train.txt")
        save_segmented(gold.lines[:keep], inputs / "gold.txt")

    def commands(self) -> list[list[str]]:
        return [["grid-search", "--train", f"{INPUTS}/train.txt", "--test", f"{INPUTS}/test.txt",
                 "--gold", f"{INPUTS}/gold.txt", "--n-max", "7",
                 "--out-csv", "trials.csv", "--out-summary", "summary.json"]]

    def reference_point(self, inputs, n, peak, prune, mode):
        train = read_lines(inputs / "train.txt")
        test = read_lines(inputs / "test.txt")
        gold = [line.split() for line in read_lines(inputs / "gold.txt")]
        seg = reference.Segmenter(reference.window_counts(train, n + 1), n, prune)
        pred = [reference.split_at(line, seg.cuts(line, peak, mode)) for line in test]
        freq = reference.token_freq(pred)
        return {
            "f1": reference.f1(*reference.boundary_tally(pred, gold)),
            "anti_entropy": reference.anti_entropy(freq),
            "compression_factor": reference.compression_factor(freq),
            "csf1": reference.cross_split_f1(train, test, n, peak, prune, mode),
        }


class MorphGrid(GridWorkload):
    """A 100-trial subword sweep over a 400-word stems x suffixes lexicon with Zipf-like counts."""

    name = "morph-grid"
    trials = 100
    grid = "n=1..5;peak=0.1:0.9:0.2;prune=0,2;mode=fwd,union"
    axes = (range(1, 6), (0.1, 0.3, 0.5, 0.7, 0.9), (0, 2), ("fwd", "union"))
    has_csf1 = False

    def setup(self, inputs: Path, seed: int) -> None:
        lexicon, inventory = make_affixed_lexicon(LANGUAGE_SEED, stems=80, suffixes=5)
        ranks = list(range(len(lexicon.entries)))
        random.Random(seed).shuffle(ranks)
        entries = [f"{word}\t{1 + 2000 // (rank + 1)}" for word, rank in zip(lexicon.entries, ranks)]
        save_text(TextCorpus(tuple(entries)), inputs / "lexicon.txt")
        save_text(TextCorpus(tuple(sorted(inventory.suffixes))), inputs / "suffixes.txt")

    def commands(self) -> list[list[str]]:
        return [["morph-grid", "--lexicon", f"{INPUTS}/lexicon.txt", "--suffixes", f"{INPUTS}/suffixes.txt",
                 "--grid", self.grid, "--out-csv", "trials.csv", "--out-summary", "summary.json"]]

    def reference_point(self, inputs, n, peak, prune, mode):
        suffixes = read_lines(inputs / "suffixes.txt")
        words, counts = [], []
        for line in read_lines(inputs / "lexicon.txt"):
            word, count = line.split("\t")
            words.append(word)
            counts.append(int(count))
        seg = reference.Segmenter(reference.window_counts(words, n + 1, counts), n, prune)
        weighted = 0.0
        pieces: Counter = Counter()
        for word, count in zip(words, counts):
            # the lexicon is stem + suffix, and no suffix ends another
            (suffix,) = [s for s in suffixes if word.endswith(s)]
            known = [word[: -len(suffix)], suffix]
            pred = reference.split_at(word, seg.cuts(word, peak, mode))
            weighted += count * reference.f1(*reference.boundary_tally([pred], [known]))
            for piece in pred:
                pieces[piece] += count
        return {
            "f1": weighted / sum(counts),
            "anti_entropy": reference.anti_entropy(pieces),
            "compression_factor": reference.compression_factor(pieces),
        }


class Pipeline(Workload):
    """build-model, tokenize and evaluate on 2,500 unspaced lines, the model going through a file."""

    name = "pipeline"
    outputs = ("model.tsv", "tokens.txt", "evaluate.out")
    n_max, n, peak = 7, 3, 0.4

    def setup(self, inputs: Path, seed: int) -> None:
        words, weights = make_vocabulary(LANGUAGE_SEED, size=50)
        train, _ = make_segmented_corpus(words, weights, seed + 1, lines=2500, spaces=False)
        test, gold = make_segmented_corpus(words, weights, seed + 2, lines=2500, spaces=False)
        save_text(train, inputs / "train.txt")
        save_text(test, inputs / "test.txt")
        save_segmented(gold.lines, inputs / "gold.txt")

    def commands(self) -> list[list[str]]:
        params = ["--n", str(self.n), "--peak", str(self.peak)]
        return [
            ["build-model", "--in", f"{INPUTS}/train.txt", "--n-max", str(self.n_max), "--out", "model.tsv"],
            ["tokenize", "--model", "model.tsv", *params, f"{INPUTS}/test.txt", "--out", "tokens.txt"],
            ["evaluate", "--pred", "tokens.txt", "--gold", f"{INPUTS}/gold.txt", "--train", f"{INPUTS}/train.txt",
             "--test", f"{INPUTS}/test.txt", *params, "--metrics", "all"],
        ]

    def test_chars(self, inputs: Path) -> int:
        return sum(map(len, read_lines(inputs / "test.txt")))

    def check(self, inputs: Path, out: Path, seed: int) -> list[str]:
        train = read_lines(inputs / "train.txt")
        test = read_lines(inputs / "test.txt")
        gold = [line.split() for line in read_lines(inputs / "gold.txt")]
        windows = {n: reference.window_counts(train, n + 1) for n in range(1, self.n_max + 1)}
        problems = self.check_model(out / "model.tsv", windows)

        seg = reference.Segmenter(windows[self.n], self.n, 0)
        pred = [reference.split_at(line, seg.cuts(line, self.peak, "union")) for line in test]
        tokens = [line.split(" ") for line in read_lines(out / "tokens.txt")]
        if len(tokens) != len(test) or any("".join(t) != line for t, line in zip(tokens, test)):
            problems.append("tokenized lines do not join back to the test lines")
        elif tokens != pred:
            wrong = sum(t != p for t, p in zip(tokens, pred))
            problems.append(f"{wrong} tokenized lines differ from the reference segmentation")

        freq = reference.token_freq(pred)
        want = {
            "f1": reference.f1(*reference.boundary_tally(pred, gold)),
            "anti_entropy": reference.anti_entropy(freq),
            "compression_factor": reference.compression_factor(freq),
            "csf1": reference.cross_split_f1(train, test, self.n, self.peak, 0, "union"),
        }
        want["reciprocal_cf"] = 1.0 / want["compression_factor"]
        want["avg3"] = (want["anti_entropy"] + want["compression_factor"] + want["csf1"]) / 3
        want["avg2"] = (want["anti_entropy"] + want["compression_factor"]) / 2
        want["product"] = want["anti_entropy"] * want["compression_factor"]
        got = json.loads(read_lines(out / "evaluate.out")[-1])
        for key, value in want.items():
            if got.get(key) != float(format(value, ".9g")):
                problems.append(f"evaluate {key}: program {got.get(key)}, reference {value:.9g}")
        return problems

    @staticmethod
    def check_model(path: Path, windows: dict[int, Counter]) -> list[str]:
        lines = path.read_text(encoding="utf-8").split("\n")
        if lines[0] != f"tlab-model v1 n_max={len(windows)}" or lines[-1] != "":
            return [f"model file header {lines[0]!r} or its last line is wrong"]
        records: dict[tuple, int] = {}
        for line in lines[1:-1]:
            tag, n, gram, ch, count = line.split("\t")
            records[(tag, int(n), gram, ch)] = int(count)
        want: dict[tuple, int] = {}
        for n, counts in windows.items():
            for window, count in counts.items():
                want[("f", n, window[:-1], window[-1])] = count
                want[("b", n, window[1:], window[0])] = count
        if records == want:
            return []
        sums: Counter = Counter()
        for (tag, n, _, _), count in records.items():
            sums[tag, n] += count
        expected = {(tag, n): sum(c.values()) for n, c in windows.items() for tag in "fb"}
        return [f"model file has {len(records)} records, reference {len(want)}; "
                f"count sums {dict(sums)}, reference {expected}"]


WORKLOADS = {w.name: w for w in (WordGrid(), MorphGrid(), Pipeline())}
