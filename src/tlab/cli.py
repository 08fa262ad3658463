"""Single command-line entry point for the whole segmentation pipeline."""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .corpus import (
    DataError,
    GoldSegmentation,
    TextCorpus,
    format_segmented,
    load_gold,
    load_segmented,
    load_text,
    sample_indices,
    save_segmented,
)
from .lab import (
    DEFAULT_GRID,
    _round9,
    parse_grid_spec,
    run_grid,
    run_morph_grid,
    summarize,
    write_summary_json,
    write_trials_csv,
)
from .metrics import (
    MetricsReport,
    anti_entropy,
    boundary_counts,
    compression_factor,
    cross_split_f1,
    f1_score,
    token_stats,
)
from .morphology import (
    AffixInventory,
    FreqLexicon,
    build_morph_model,
    filter_lexicon,
    load_affixes,
    load_lexicon,
    weighted_morph_f1,
)
from .ngram import build_model, check_order, load_model, save_model
from .segmenter import MODES, SegmenterParams, segment_corpus


class UsageError(Exception):
    """Invalid flag combination detected after parsing."""


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_params_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, required=True, help="n-gram order")
    parser.add_argument("--peak", type=float, required=True, help="peak threshold in [0,1]")
    parser.add_argument("--prune", type=int, default=0, help="minimum edge count kept")
    parser.add_argument("--mode", choices=MODES, default="union")


def _add_lexicon_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--lexicon", required=True, help="word<TAB>count file")
    parser.add_argument("--prefixes", help="prefix dictionary file")
    parser.add_argument("--suffixes", help="suffix dictionary file")
    parser.add_argument("--min-stem", type=int, default=3, help="shortest stem an affix parse may leave")
    parser.add_argument("--min-word-len", type=int, default=0, help="drop words of at most this many scalars")


def _params_from(args: argparse.Namespace) -> SegmenterParams:
    return SegmenterParams(args.n, args.peak, args.prune, args.mode)


def _config_dict(args: argparse.Namespace) -> dict:
    skip = {"func"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _emit_metrics(values: dict, args: argparse.Namespace) -> int:
    """Print the metric values, rounded to 9 significant digits, and the config as one JSON line."""
    payload = {k: _round9(v) for k, v in values.items()}
    payload["config"] = _config_dict(args)
    print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_build_model(args: argparse.Namespace) -> int:
    corpus = load_text(args.infile)
    model = build_model(corpus, args.n_max)
    save_model(model, args.out)
    print(f"built model from {len(corpus.lines)} lines -> {args.out}", file=sys.stderr)
    return 0


def cmd_tokenize(args: argparse.Namespace) -> int:
    model = load_model(args.model, (args.n,))  # only the order that segmentation reads
    corpus = load_text(args.input)
    token_lines = segment_corpus(model, corpus, _params_from(args))
    if args.out:
        save_segmented(token_lines, args.out)
    else:
        text = format_segmented(token_lines)
        buffer = getattr(sys.stdout, "buffer", None)
        if buffer is None:  # a text-only stream, such as io.StringIO, takes the text itself
            sys.stdout.write(text)
        else:
            # the bytes --out would hold, whatever encoding the locale gives stdout
            sys.stdout.flush()
            buffer.write(text.encode("utf-8"))
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    selected = args.metrics
    pred = load_segmented(args.pred)
    report = dict.fromkeys(MetricsReport._fields)

    if selected in ("all", "f1"):
        if not args.gold:
            raise UsageError("--gold is required for the f1 metric")
        gold = load_gold(args.gold)
        report["f1"] = f1_score(boundary_counts(pred.lines, gold.lines))
    if selected in ("all", "se", "cf"):
        stats = token_stats(pred.lines)
        if selected in ("all", "se"):
            report["anti_entropy"] = anti_entropy(stats)
        if selected in ("all", "cf"):
            report["compression_factor"] = compression_factor(stats)
        if selected == "cf":
            report["reciprocal_cf"] = 1.0 / report["compression_factor"]
    if selected in ("all", "csf1"):
        needed = [args.train, args.test, args.n, args.peak]
        if any(v is None for v in needed):
            raise UsageError("--train, --test, --n and --peak are required for the csf1 metric")
        train, test, params = load_text(args.train), load_text(args.test), _params_from(args)
        check_order(params.n, args.n_max)
        report["csf1"] = cross_split_f1(train, test, params)
    if selected == "all":
        report = MetricsReport.of(report["f1"], report["anti_entropy"], report["compression_factor"],
                                  report["csf1"])._asdict()
    return _emit_metrics(report, args)


def _sampled(test: TextCorpus, gold: GoldSegmentation, count: int | None, seed: int):
    if count is None or len(gold.lines) != len(test.lines):
        return test, gold  # run_grid rejects misaligned gold
    idx = sample_indices(len(test.lines), count, seed)
    return TextCorpus(tuple(test.lines[i] for i in idx)), GoldSegmentation(tuple(gold.lines[i] for i in idx))


def cmd_grid_search(args: argparse.Namespace) -> int:
    spec = parse_grid_spec(args.grid, args.n_max)
    train = load_text(args.train)
    test = load_text(args.test)
    gold = load_gold(args.gold)
    test, gold = _sampled(test, gold, args.sample_test, args.seed)
    return _write_records(run_grid(train, test, gold, spec), args)


def _write_records(records: list, args: argparse.Namespace) -> int:
    """Write a grid's trial CSV and, with --out-summary, its summary JSON, each with the config."""
    config = _config_dict(args)
    write_trials_csv(records, args.out_csv, config)
    if args.out_summary:
        write_summary_json(summarize(records), args.out_summary, config)
    print(f"{len(records)} trials -> {args.out_csv}", file=sys.stderr)
    return 0


def _lexicon_from(args: argparse.Namespace) -> tuple[FreqLexicon, AffixInventory]:
    """The lexicon without its words of at most --min-word-len scalars, and the affix inventory."""
    lexicon = filter_lexicon(load_lexicon(args.lexicon), args.min_word_len)
    prefixes = load_affixes(args.prefixes) if args.prefixes else frozenset()
    suffixes = load_affixes(args.suffixes) if args.suffixes else frozenset()
    return lexicon, AffixInventory(prefixes, suffixes, min_stem=args.min_stem)


def cmd_morph_eval(args: argparse.Namespace) -> int:
    lexicon, inventory = _lexicon_from(args)
    params = _params_from(args)
    check_order(params.n, args.n_max)
    # only order --n is read, and its counts do not depend on the orders above it
    report = weighted_morph_f1(build_morph_model(lexicon, params.n), lexicon, inventory, params)
    keys = ("f1", "anti_entropy", "compression_factor", "avg2", "product")
    return _emit_metrics({k: getattr(report, k) for k in keys}, args)


def cmd_morph_grid(args: argparse.Namespace) -> int:
    spec = parse_grid_spec(args.grid, args.n_max)
    lexicon, inventory = _lexicon_from(args)
    return _write_records(run_morph_grid(lexicon, inventory, spec), args)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tlab", description="Unsupervised text segmentation laboratory")
    parser.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("build-model", help="count n-gram transitions of a corpus")
    p.add_argument("--in", dest="infile", required=True, help="raw corpus, one line per entry")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--out", required=True, help="model file to write")
    p.set_defaults(func=cmd_build_model)

    p = sub.add_parser("tokenize", help="segment a corpus with a trained model")
    p.add_argument("--model", required=True)
    _add_params_flags(p)
    p.add_argument("input", help="raw corpus to segment")
    p.add_argument("--out", help="output file (gold format); stdout when omitted")
    p.set_defaults(func=cmd_tokenize)

    p = sub.add_parser("evaluate", help="score a segmentation and report metrics")
    p.add_argument("--pred", required=True, help="tokenized file (gold format)")
    p.add_argument("--gold", help="reference segmentation")
    p.add_argument("--train", help="training corpus, needed for csf1")
    p.add_argument("--test", help="test corpus, needed for csf1")
    p.add_argument("--metrics", choices=("all", "f1", "se", "cf", "csf1"), default="all")
    p.add_argument("--n", type=int, help="order for csf1 segmentation")
    p.add_argument("--peak", type=float, help="peak threshold for csf1 segmentation")
    p.add_argument("--prune", type=int, default=0)
    p.add_argument("--mode", choices=MODES, default="union")
    p.add_argument("--n-max", type=int, default=7)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("grid-search", help="sweep hyper-parameters on a corpus")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--grid", default=DEFAULT_GRID, help=f"axis spec, default {DEFAULT_GRID!r}")
    p.add_argument("--out-csv", required=True)
    p.add_argument("--out-summary")
    p.add_argument("--sample-test", type=int, help="seeded sample of test lines")
    p.set_defaults(func=cmd_grid_search)

    p = sub.add_parser("morph-eval", help="score subword segmentation of a lexicon")
    _add_lexicon_flags(p)
    _add_params_flags(p)
    p.add_argument("--n-max", type=int, default=7)
    p.set_defaults(func=cmd_morph_eval)

    p = sub.add_parser("morph-grid", help="sweep hyper-parameters on a lexicon")
    _add_lexicon_flags(p)
    p.add_argument("--grid", default=DEFAULT_GRID)
    p.add_argument("--n-max", type=int, default=7)
    p.add_argument("--out-csv", required=True)
    p.add_argument("--out-summary")
    p.set_defaults(func=cmd_morph_grid)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        return report_error(exc)


def report_error(exc: DataError | OSError) -> int:
    """Print a data or I/O error as one JSON object on one line of stderr, and return its exit status, 2."""
    print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
    return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
