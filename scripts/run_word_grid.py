#!/usr/bin/env python3
"""Word-level grid-search experiment on a seeded synthetic language.

Generates a vocabulary with Zipf-ish frequencies, builds train/test corpora
(with and without spaces), sweeps the hyper-parameter grid, and writes the
trial CSV plus correlation summary for each variant. The console digest
shows how F1 tracks the culture-agnostic metrics in both compression-factor
orientations.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tlab.cli import report_error
from tlab.corpus import DataError, save_segmented, save_text
from tlab.lab import (
    DEFAULT_GRID,
    parse_grid_spec,
    pearson,
    run_grid,
    summarize,
    write_summary_json,
    write_trials_csv,
)
from tlab.synth import make_segmented_corpus, make_vocabulary


def run_variant(words, weights, args, spaces, out_dir):
    tag = "spaced" if spaces else "unspaced"
    train, _ = make_segmented_corpus(
        words, weights, seed=args.seed + 1, lines=args.lines, spaces=spaces
    )
    test, gold = make_segmented_corpus(
        words, weights, seed=args.seed + 2, lines=args.test_lines, spaces=spaces
    )
    save_text(train, out_dir / f"train-{tag}.txt")
    save_text(test, out_dir / f"test-{tag}.txt")
    save_segmented(gold.lines, out_dir / f"gold-{tag}.txt")

    spec = parse_grid_spec(args.grid, args.n_max)
    records = run_grid(train, test, gold, spec)
    config = {"experiment": f"synthetic-words-{tag}", **vars(args)}
    write_trials_csv(records, out_dir / f"trials-{tag}.csv", config)
    summary = summarize(records)
    write_summary_json(summary, out_dir / f"summary-{tag}.json", config)

    valid = [r for r in records if r.error is None]
    f1s = [r.report.f1 for r in valid]
    recip_avg3 = [
        (r.report.anti_entropy + r.report.reciprocal_cf + r.report.csf1) / 3 for r in valid
    ]
    print(f"[{tag}] {len(valid)}/{len(records)} valid trials, max F1 {max(f1s):.4f}")
    for name, r_value in summary.pearson_f1_vs.items():
        shown = "undefined" if r_value is None else f"{r_value:+.4f}"
        print(f"[{tag}]   pearson(F1, {name}) = {shown}")
    r_recip = pearson(f1s, recip_avg3)
    print(f"[{tag}]   pearson(F1, avg3 with 1/C%) = {r_recip:+.4f}")
    best = max(valid, key=lambda r: (r.report.anti_entropy + r.report.reciprocal_cf + r.report.csf1) / 3)
    print(f"[{tag}]   argmax-avg3(1/C%) trial: F1 {best.report.f1:.4f} at "
          f"n={best.params.n} peak={best.params.peak} "
          f"prune={best.params.prune} mode={best.params.mode}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--words", type=int, default=50)
    parser.add_argument("--lines", type=int, default=5000)
    parser.add_argument("--test-lines", type=int, default=300)
    parser.add_argument("--n-max", type=int, default=7)
    parser.add_argument("--grid", default=DEFAULT_GRID)
    parser.add_argument("--out-dir", default="out/word-grid")
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    words, weights = make_vocabulary(args.seed, size=args.words)
    print(f"vocabulary of {len(words)} words, e.g. {', '.join(words[:8])}")
    for spaces in (True, False):
        run_variant(words, weights, args, spaces, out_dir)
    print(f"artifacts in {out_dir}/")


if __name__ == "__main__":
    try:
        main()
    except (DataError, OSError) as exc:
        sys.exit(report_error(exc))
