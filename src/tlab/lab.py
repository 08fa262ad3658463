"""Hyper-parameter grid search with per-trial metric records and correlations."""

from __future__ import annotations

import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from .corpus import DataError, GoldSegmentation, TextCorpus, split_even_odd
from .metrics import (
    MetricsReport,
    anti_entropy,
    compression_factor,
    derived_metrics,
    f1_score,
    nonspace_prefix,
    project_cuts,
    split_f1,
    stripped_boundaries,
    tally,
    token_stats,
)
from .morphology import AffixInventory, FreqLexicon, build_morph_model, reference_cuts, thresholded_morph_f1
from .ngram import build_model, prune
from .segmenter import MODES, SegmenterParams, detect_boundaries, scores, split_at

MODE_SHORT = {"forward": "fwd", "backward": "bwd", "union": "union"}
MODE_LONG = {short: long for long, short in MODE_SHORT.items()}

METRIC_COLUMNS = (
    "anti_entropy",
    "compression_factor",
    "reciprocal_cf",
    "csf1",
    "avg3",
    "avg2",
    "product",
)

CSV_HEADER = (
    "n,peak,prune,mode,f1,anti_entropy,compression_factor,reciprocal_cf,"
    "csf1,avg3,avg2,product,wall_time_ms,error"
)

DEFAULT_GRID = "n=1..7;peak=0:0.9:0.1;prune=0,2,5;mode=fwd,union"


@dataclass(frozen=True)
class GridSpec:
    """Value lists whose Cartesian product defines the trial set."""

    n_values: tuple[int, ...]
    peak_values: tuple[float, ...]
    prune_values: tuple[int, ...]
    direction_modes: tuple[str, ...]

    def __post_init__(self) -> None:
        if not (self.n_values and self.peak_values and self.prune_values and self.direction_modes):
            raise DataError("every grid axis needs at least one value")
        if min(self.n_values) < 1:
            raise DataError("grid orders must be >= 1")
        if min(self.peak_values) < 0.0 or max(self.peak_values) > 1.0:
            raise DataError("grid peak thresholds must lie in [0, 1]")
        if min(self.prune_values) < 0:
            raise DataError("grid prune thresholds must be >= 0")
        for mode in self.direction_modes:
            if mode not in MODES:
                raise DataError(f"unknown direction mode {mode!r}")

    @property
    def cardinality(self) -> int:
        return (
            len(set(self.n_values))
            * len(set(self.peak_values))
            * len(set(self.prune_values))
            * len(set(self.direction_modes))
        )


@dataclass(frozen=True)
class TrialRecord:
    params: SegmenterParams
    report: MetricsReport | None
    wall_time_ms: int
    error: str | None = None

    @property
    def reciprocal_cf(self) -> float | None:
        return None if self.report is None else 1.0 / self.report.compression_factor


@dataclass(frozen=True)
class CorrelationSummary:
    """Pearson of F1 against each metric column, plus argmax params per column."""

    pearson_f1_vs: dict[str, float | None]
    argmax_params: dict[str, SegmenterParams | None]


def _parse_axis(key: str, text: str) -> list:
    if ".." in text:
        lo_text, _, hi_text = text.partition("..")
        lo, hi = int(lo_text), int(hi_text)
        if hi < lo:
            raise DataError(f"empty range {text!r} for {key}")
        return list(range(lo, hi + 1))
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise DataError(f"float range for {key} must be start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if not all(map(math.isfinite, (start, stop, step))):
            raise DataError(f"float range for {key} must be finite, got {text!r}")
        if step <= 0:
            raise DataError(f"step must be positive in {text!r}")
        values = []
        k = 0
        while True:
            value = round(start + k * step, 10)
            if value > stop + 1e-9:
                break
            values.append(value)
            k += 1
        return values
    return text.split(",")


def parse_grid_spec(text: str) -> GridSpec:
    """Parse the compact axis syntax, e.g. ``n=1..7;peak=0:0.9:0.1;prune=0,2;mode=fwd,union``."""
    axes: dict[str, list] = {}
    for clause in text.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        key, sep, value = clause.partition("=")
        key = key.strip()
        if not sep or key not in ("n", "peak", "prune", "mode"):
            raise DataError(f"bad grid clause {clause!r}")
        try:
            axes[key] = _parse_axis(key, value.strip())
        except ValueError as exc:
            raise DataError(f"non-numeric grid range in {clause!r}") from exc
    missing = {"n", "peak", "prune", "mode"} - set(axes)
    if missing:
        raise DataError(f"grid spec missing axes: {', '.join(sorted(missing))}")
    try:
        n_values = tuple(int(v) for v in axes["n"])
        peak_values = tuple(float(v) for v in axes["peak"])
        prune_values = tuple(int(v) for v in axes["prune"])
    except (TypeError, ValueError) as exc:
        raise DataError(f"non-numeric grid value in {text!r}") from exc
    modes = []
    for mode in axes["mode"]:
        name = MODE_LONG.get(str(mode).strip(), str(mode).strip())
        if name not in MODES:
            raise DataError(f"unknown direction mode {mode!r}")
        modes.append(name)
    return GridSpec(n_values, peak_values, prune_values, tuple(modes))


def _sort_key(params: SegmenterParams) -> tuple:
    return (params.n, params.peak_threshold, params.prune_threshold, MODE_SHORT[params.direction_mode])


def run_grid(
    train: TextCorpus,
    test: TextCorpus,
    gold: GoldSegmentation,
    spec: GridSpec,
    n_max: int,
) -> list[TrialRecord]:
    """Evaluate every grid point on a shared raw model.

    The two interleaved train halves (for cross-split F1) are counted once,
    the full-train model is their sum, and all three are pruned per prune
    value; every peak value of a (prune, n, mode) cell shares its gap scores.
    Failed trials are recorded with an error marker instead of aborting.
    """
    if n_max < max(spec.n_values):
        raise DataError(f"n_max {n_max} is below the largest grid order {max(spec.n_values)}")
    if len(gold.lines) != len(test.lines):
        raise DataError(f"gold has {len(gold.lines)} lines but test has {len(test.lines)}")

    prefixes = [nonspace_prefix(line) for line in test.lines]
    gold_bounds = []
    for i, (line, tokens) in enumerate(zip(test.lines, gold.lines)):
        stream, bounds = stripped_boundaries(tokens)
        if stream != "".join(ch for ch in line if not ch.isspace()):
            raise DataError(f"gold/test character streams diverge at line {i + 1}")
        gold_bounds.append(bounds)

    part_a, part_b = split_even_odd(train)
    raw_a, raw_b = build_model(part_a, n_max), build_model(part_b, n_max)
    return _sweep(
        spec, (raw_a + raw_b, raw_a, raw_b), test.lines, _word_trial, test.lines, prefixes, gold_bounds
    )


def _sweep(spec: GridSpec, raw_models, lines, trial, *args) -> list[TrialRecord]:
    """Record ``trial(params, line_scores, *args)`` at every grid point, sorted.

    The raw models are pruned once per prune value, and ``line_scores`` (the
    gap scores of every line under each model) are computed once per
    (prune, n, mode) cell, whose peak values only threshold them.
    """
    peaks = sorted(set(spec.peak_values))
    records: list[TrialRecord] = []
    for prune_threshold in sorted(set(spec.prune_values)):
        models = [prune(m, prune_threshold) for m in raw_models]
        for n in sorted(set(spec.n_values)):
            for mode in sorted(set(spec.direction_modes), key=MODE_SHORT.get):
                line_scores = [[scores(m, line, n, mode) for line in lines] for m in models]
                for peak in peaks:
                    params = SegmenterParams(n, peak, prune_threshold, mode)
                    records.append(_timed_trial(trial, params, line_scores, *args))
    records.sort(key=lambda r: _sort_key(r.params))
    return records


def _timed_trial(score: Callable[..., MetricsReport], params: SegmenterParams, *args) -> TrialRecord:
    """Score one grid point, recording its wall time and any error instead of raising."""
    start = time.perf_counter()
    try:
        report = score(params, *args)
        error = None
    except Exception as exc:  # noqa: BLE001 - recorded per trial
        report, error = None, f"{type(exc).__name__}: {exc}"
    wall = int((time.perf_counter() - start) * 1000)
    return TrialRecord(params, report, wall, error)


def _word_trial(params, line_scores, lines, prefixes, gold_bounds):
    threshold = params.peak_threshold
    scores_m, scores_a, scores_b = line_scores
    cuts = [detect_boundaries(sm, threshold) for sm in scores_m]
    f1 = f1_score(tally(zip(map(project_cuts, prefixes, cuts), gold_bounds)))
    stats = token_stats(map(split_at, lines, cuts), drop_whitespace_tokens=True)
    s_value, c_value = anti_entropy(stats), compression_factor(stats)
    csf1 = split_f1(prefixes, scores_a, scores_b, threshold)
    return MetricsReport(f1, s_value, c_value, csf1, *derived_metrics(s_value, c_value, csf1))


def run_morph_grid(
    lexicon: FreqLexicon,
    inventory: AffixInventory,
    spec: GridSpec,
    n_max: int,
) -> list[TrialRecord]:
    """Grid search scored by frequency-weighted morph F1; csf1/avg3 not applicable.

    The greedy reference cuts are parsed once for the whole grid.
    """
    if n_max < max(spec.n_values):
        raise DataError(f"n_max {n_max} is below the largest grid order {max(spec.n_values)}")
    raw = build_morph_model(lexicon, n_max)
    references = reference_cuts(lexicon, inventory)
    return _sweep(spec, (raw,), lexicon.entries, _morph_trial, lexicon, references)


def _morph_trial(params, line_scores, lexicon, references):
    f1, s_value, c_value = thresholded_morph_f1(lexicon, references, line_scores[0], params.peak_threshold)
    return MetricsReport(f1, s_value, c_value, None, *derived_metrics(s_value, c_value))


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float | None:
    """Sample Pearson correlation; None when either series has zero variance."""
    if len(xs) != len(ys):
        raise DataError(f"length mismatch: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 2:
        raise DataError("correlation needs at least two points")
    mean_x = math.fsum(xs) / n
    mean_y = math.fsum(ys) / n
    cov = math.fsum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = math.fsum((x - mean_x) ** 2 for x in xs)
    var_y = math.fsum((y - mean_y) ** 2 for y in ys)
    if var_x == 0.0 or var_y == 0.0:
        return None
    r = cov / math.sqrt(var_x * var_y)
    return min(1.0, max(-1.0, r))


def _column_value(record: TrialRecord, column: str) -> float | None:
    return getattr(record if column == "reciprocal_cf" else record.report, column)


def summarize(records: Sequence[TrialRecord]) -> CorrelationSummary:
    """Correlate F1 with every metric column and find each column's argmax."""
    valid = [r for r in records if r.error is None and r.report is not None]
    if len(valid) < 2:
        raise DataError(f"need at least 2 valid trial records, got {len(valid)}")
    correlations: dict[str, float | None] = {}
    argmax: dict[str, SegmenterParams | None] = {}
    for column in METRIC_COLUMNS:
        scored = [(r, _column_value(r, column)) for r in valid]
        scored = [(r, v) for r, v in scored if v is not None]
        if len(scored) >= 2:
            correlations[column] = pearson([r.report.f1 for r, _ in scored], [v for _, v in scored])
        else:
            correlations[column] = None
        argmax[column] = max(scored, key=lambda rv: rv[1])[0].params if scored else None
    return CorrelationSummary(correlations, argmax)


def _round9(value: float | None) -> float | None:
    return None if value is None else float(f"{value:.9g}")


def _format_field(value: float | None) -> str:
    return "" if value is None else format(value, ".9g")


def params_to_dict(params: SegmenterParams) -> dict:
    return {
        "n": params.n,
        "peak": _round9(params.peak_threshold),
        "prune": params.prune_threshold,
        "mode": MODE_SHORT[params.direction_mode],
    }


def write_trials_csv(
    records: Sequence[TrialRecord],
    path: str | Path,
    config: dict | None = None,
    timings: bool = False,
) -> None:
    """Trial table with 9-significant-digit floats and LF line endings.

    Wall times are written as 0 unless ``timings`` is set, so that repeated
    runs of the same configuration emit byte-identical files.
    """
    buf = io.StringIO()
    if config is not None:
        buf.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
    buf.write(CSV_HEADER + "\n")
    for r in records:
        rep = r.report
        fields = [
            str(r.params.n),
            _format_field(r.params.peak_threshold),
            str(r.params.prune_threshold),
            MODE_SHORT[r.params.direction_mode],
            _format_field(rep.f1 if rep else None),
            _format_field(rep.anti_entropy if rep else None),
            _format_field(rep.compression_factor if rep else None),
            _format_field(r.reciprocal_cf),
            _format_field(rep.csf1 if rep else None),
            _format_field(rep.avg3 if rep else None),
            _format_field(rep.avg2 if rep else None),
            _format_field(rep.product if rep else None),
            str(r.wall_time_ms if timings else 0),
            (r.error or "").replace("\n", " ").replace(",", ";"),
        ]
        buf.write(",".join(fields) + "\n")
    Path(path).write_bytes(buf.getvalue().encode("utf-8"))


def summary_to_dict(summary: CorrelationSummary) -> dict:
    return {
        "pearson_f1_vs": {k: _round9(v) for k, v in summary.pearson_f1_vs.items()},
        "argmax_params": {
            k: (params_to_dict(p) if p is not None else None)
            for k, p in summary.argmax_params.items()
        },
    }


def write_summary_json(
    summary: CorrelationSummary, path: str | Path, config: dict | None = None
) -> None:
    payload = summary_to_dict(summary)
    if config is not None:
        payload["config"] = config
    Path(path).write_bytes((json.dumps(payload, sort_keys=True) + "\n").encode("utf-8"))
