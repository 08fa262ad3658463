#!/usr/bin/env python3
"""Subword grid-search experiment on a seeded stems-by-suffixes lexicon.

The greedy affix parser, configured with the same suffix set that generated
the lexicon, provides the reference parses. The digest prints how the
frequency-weighted F1 relates to compression factor and anti-entropy.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tlab.cli import report_error
from tlab.corpus import DataError, TextCorpus, save_text
from tlab.lab import parse_grid_spec, run_morph_grid, summarize, write_summary_json, write_trials_csv
from tlab.synth import make_affixed_lexicon


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--stems", type=int, default=20)
    parser.add_argument("--suffixes", type=int, default=4)
    parser.add_argument("--n-max", type=int, default=5)
    parser.add_argument("--grid", default="n=1..5;peak=0.1:0.9:0.2;prune=0;mode=union")
    parser.add_argument("--out-dir", default="out/morph-grid")
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lexicon, inventory = make_affixed_lexicon(args.seed, stems=args.stems, suffixes=args.suffixes)
    save_text(TextCorpus(tuple(f"{w}\t{c}" for w, c in lexicon.entries.items())), out_dir / "lexicon.txt")
    save_text(TextCorpus(tuple(sorted(inventory.suffixes))), out_dir / "suffixes.txt")
    print(f"{len(lexicon.entries)} words from {args.stems} stems x {sorted(inventory.suffixes)}")

    spec = parse_grid_spec(args.grid, args.n_max)
    records = run_morph_grid(lexicon, inventory, spec)
    config = {"experiment": "synthetic-morph", **vars(args)}
    write_trials_csv(records, out_dir / "trials.csv", config)
    summary = summarize(records)
    write_summary_json(summary, out_dir / "summary.json", config)

    valid = [r for r in records if r.error is None]
    print(f"{len(valid)}/{len(records)} valid trials, max F1 "
          f"{max(r.report.f1 for r in valid):.4f}")
    for name in ("compression_factor", "reciprocal_cf", "anti_entropy", "avg2", "product"):
        r_value = summary.pearson_f1_vs[name]
        shown = "undefined" if r_value is None else f"{r_value:+.4f}"
        print(f"  pearson(F1, {name}) = {shown}")
    print(f"artifacts in {out_dir}/")


if __name__ == "__main__":
    try:
        main()
    except (DataError, OSError) as exc:
        sys.exit(report_error(exc))
