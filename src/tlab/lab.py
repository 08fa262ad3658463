"""Hyper-parameter grid search with per-trial metric records and correlations."""

from __future__ import annotations

import io
import json
import math
from collections import namedtuple
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from .corpus import DataError, GoldSegmentation, TextCorpus, split_even_odd
from .metrics import MetricsReport, gold_cuts, nonspace_prefix
from .morphology import AffixInventory, FreqLexicon, build_morph_model, reference_cuts
from .ngram import build_model, check_order, freedom
from .segmenter import SegmenterParams, check_domain, grams_of, levels, thresholds
from .walk import MorphWalk, WordWalk

METRIC_COLUMNS = MetricsReport._fields[1:]  # every report field but F1, which they are correlated with

CSV_HEADER = ",".join((*SegmenterParams._fields, *MetricsReport._fields, "wall_time_ms", "error"))

DEFAULT_GRID = "n=1..7;peak=0:0.9:0.1;prune=0,2,5;mode=fwd,union"

# the most values a grid axis may list, and the most trials a grid may hold;
# more is a mistyped range, slow and large to list and to sweep
MAX_AXIS_VALUES = 100_000


class GridSpec(namedtuple("GridSpec", SegmenterParams._fields)):
    """Value tuples whose Cartesian product defines the trial set, one per
    :class:`~tlab.segmenter.SegmenterParams` field and named as it is; every
    value is checked by :func:`~tlab.segmenter.check_domain`, and the set
    holds at most :data:`MAX_AXIS_VALUES` distinct trials."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> GridSpec:
        spec = super().__new__(cls, *args, **kwargs)
        for axis, values in zip(cls._fields, spec):
            if not values:
                raise DataError("every grid axis needs at least one value")
            for value in values:
                check_domain(axis, value)
        trials = math.prod(len(set(values)) for values in spec)
        if trials > MAX_AXIS_VALUES:
            raise DataError(f"grid holds {trials} trials, more than {MAX_AXIS_VALUES}")
        return spec


class TrialRecord(NamedTuple):
    params: SegmenterParams
    report: MetricsReport | None
    error: str | None = None


class CorrelationSummary(NamedTuple):
    """Pearson of F1 against each metric column, plus argmax params per column."""

    pearson_f1_vs: dict[str, float | None]
    argmax_params: dict[str, SegmenterParams | None]


def _parse_axis(key: str, text: str) -> list:
    """One axis's values. A range is counted before it is listed, and its
    first and last values are checked against the axis domain."""
    if ".." in text:
        lo_text, _, hi_text = text.partition("..")
        bound = _whole if key in ("n", "prune") else int
        lo, hi = bound(lo_text), bound(hi_text)
        count = hi - lo + 1

        def value(k: int) -> int:
            return lo + k
    elif ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise DataError(f"float range for {key} must be start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if not all(map(math.isfinite, (start, stop, step))):
            raise DataError(f"float range for {key} must be finite, got {text!r}")
        if step <= 0:
            raise DataError(f"step must be positive in {text!r}")

        def value(k: int) -> float:
            return round(start + k * step, 10)

        # the values rise with k, so they stay within the stop up to a count,
        # which is counted no further than one past the limit
        count = 0
        while count <= MAX_AXIS_VALUES and value(count) <= stop + 1e-9:
            count += 1
    else:
        return text.split(",")
    if count > MAX_AXIS_VALUES:
        raise DataError(f"range {text!r} for {key} holds more than {MAX_AXIS_VALUES} values")
    if count < 1:
        raise DataError(f"empty range {text!r} for {key}")
    check_domain(key, value(0))
    check_domain(key, value(count - 1))
    return [value(k) for k in range(count)]


def _whole(value) -> int:
    """An n or prune value as an int: ``"2"``, ``"2.0"`` and a float range's
    2.0 are 2, and 1.5 in any syntax is a data error, not truncated to 1."""
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            value = float(value)
    if isinstance(value, float) and not value.is_integer():
        raise DataError(f"n and prune values must be whole numbers, got {value!r}")
    return int(value)


def parse_grid_spec(text: str, n_max: int | None = None) -> GridSpec:
    """Parse the compact axis syntax, e.g. ``n=1..7;peak=0:0.9:0.1;prune=0,2;mode=fwd,union``.

    With ``n_max`` given, an order above it is rejected too.
    """
    axes: dict[str, list] = {}
    for clause in text.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        key, sep, value = clause.partition("=")
        key = key.strip()
        if not sep or key not in GridSpec._fields:
            raise DataError(f"bad grid clause {clause!r}")
        try:
            values = _parse_axis(key, value.strip())
        except ValueError as exc:
            raise DataError(f"non-numeric grid range in {clause!r}") from exc
        if key in axes:
            raise DataError(f"grid axis {key!r} given twice in {text!r}")
        axes[key] = values
    missing = set(GridSpec._fields) - set(axes)
    if missing:
        raise DataError(f"grid spec missing axes: {', '.join(sorted(missing))}")
    try:
        kinds = zip(GridSpec._fields, (_whole, float, _whole, str.strip))
        values = [tuple(map(kind, axes[axis])) for axis, kind in kinds]
    except (TypeError, ValueError) as exc:
        raise DataError(f"non-numeric grid value in {text!r}") from exc
    spec = GridSpec(*values)
    if n_max is not None:
        check_order(max(spec.n), n_max)
    return spec


def run_grid(
    train: TextCorpus,
    test: TextCorpus,
    gold: GoldSegmentation,
    spec: GridSpec,
) -> list[TrialRecord]:
    """Evaluate every grid point on a shared raw model.

    The two interleaved train halves (for cross-split F1) are counted once,
    up to the grid's largest order, and each full-train window table is the
    sum of the halves'. The grid is swept one order at a time
    (:func:`_sweep`), each (n, prune) cell with its own freedom views of the
    three models' tables, and each order's tables freed once its cells are
    done; each (n, prune, mode) cell levels its gaps once and walks its peak
    values from the highest down (:class:`~tlab.walk.WordWalk`). A cell
    whose three views keep as many windows as at the order's previous prune
    value copies that cell's records. Failed trials are recorded with an
    error marker instead of aborting.
    """
    top, bins = max(spec.n), len(set(spec.peak))
    prefixes = [nonspace_prefix(line) for line in test.lines]
    gold_levels = gold_cuts(test.lines, gold, bins)
    windows_a, windows_b = (build_model(part, top).windows for part in split_even_odd(train))
    windows_m = {n: _add(windows_a.get(n, {}), windows_b.get(n, {})) for n in windows_a.keys() | windows_b.keys()}
    return _sweep(spec, [windows_m, windows_a, windows_b], test.lines,
                  lambda line_levels, bins: WordWalk(test.lines, prefixes, gold_levels, *line_levels, bins))


def _add(counts_a: dict[str, int], counts_b: dict[str, int]) -> dict[str, int]:
    """Two window tables summed, ``counts_a``'s windows first."""
    total = dict(counts_a)
    get = total.get
    for window, count in counts_b.items():
        total[window] = get(window, 0) + count
    return total


def _sweep(spec: GridSpec, raw_windows: list[dict], lines, walk) -> list[TrialRecord]:
    """Record every grid point, sorted.

    ``raw_windows`` holds each raw model's window tables by order (an order
    with no window has no table). The sweep frees the orders that are not on
    the grid at once, and is order-major: each order's tables are taken out
    of ``raw_windows`` as the order starts and freed as the next one starts,
    so the caller must keep no other reference to them. Each line is sliced
    into n-grams once per order, and each (n, prune) cell derives its own
    :func:`~tlab.ngram.freedom` view of every raw table, so the cell's
    degree tables die with it. Each view gets one
    :func:`~tlab.segmenter.thresholds` table of the grid's distinct peaks
    and modes, and each direction the modes need is leveled once per view
    and line; a fwd or bwd cell takes its direction's levels, and a union
    cell the larger of the two. ``walk`` makes the cell's walker from those
    levels and the number of peaks, and each of its ``report`` calls gives
    the next peak's metrics, from the highest down.

    Prune values are visited in ascending order, and a window kept at one
    value is kept at every lower one. So when each view of a cell keeps as
    many windows (:attr:`~tlab.ngram.Freedom.windows`) as the same model's
    view at the order's previous prune value, the views are equal, and the
    cell takes that cell's records with ``prune`` replaced: it computes no
    levels and builds no walker. A value that removes a window from any one
    view, a half model's included, is scored in full.
    """
    peaks = sorted(set(spec.peak), reverse=True)
    ascending, modes = peaks[::-1], sorted(set(spec.mode))
    records: list[TrialRecord] = []
    orders = sorted(set(spec.n))
    for windows in raw_windows:  # an order off the grid was counted only to derive the orders below it
        for n in windows.keys() - orders:
            del windows[n]
    for n in orders:
        tables = [windows.pop(n, {}) for windows in raw_windows]
        sliced = [grams_of(line, n) for line in lines]
        kept, cell_records = None, []  # the windows each view of the order's last cell keeps, and its records
        for prune in sorted(set(spec.prune)):
            views = [freedom(n, table, prune) for table in tables]
            if [view.windows for view in views] == kept:
                # prune values nest, so these views keep the last cell's windows: its levels, its records
                cell_records = [r._replace(params=r.params._replace(prune=prune)) for r in cell_records]
            else:
                kept, cell_records = [view.windows for view in views], []
                rules = [(v, thresholds(v, ascending, modes)) for v in views]  # each view with its one table
                leveled = {d: [[levels(v, line, d, t, g) for line, g in zip(lines, sliced)] for v, t in rules]
                           for d in rules[0][1]}  # the directions the modes read, as thresholds built them
                for mode in modes:
                    line_levels = leveled[mode] if mode != "union" else [
                        [list(map(max, f, b)) for f, b in zip(*pair)] for pair in zip(leveled["fwd"], leveled["bwd"])]
                    cell = walk(line_levels, len(peaks))
                    for peak in peaks:
                        cell_records.append(_trial(cell.report, SegmenterParams(n, peak, prune, mode)))
                    del cell, line_levels  # free this cell's walker before the next one is built
                del leveled, rules  # rules holds the views too
            records += cell_records
            del views  # and this cell's degree tables before the next cell's
    records.sort(key=lambda r: r.params)
    return records


def _trial(report: Callable[[], MetricsReport], params: SegmenterParams) -> TrialRecord:
    """Record the walker's ``report`` at the next peak, ``params.peak``, or the error it raises."""
    try:
        return TrialRecord(params, report())
    except Exception as exc:  # noqa: BLE001 - recorded per trial
        return TrialRecord(params, None, f"{type(exc).__name__}: {exc}")


def run_morph_grid(
    lexicon: FreqLexicon,
    inventory: AffixInventory,
    spec: GridSpec,
) -> list[TrialRecord]:
    """Grid search scored by frequency-weighted morph F1; csf1/avg3 not applicable.

    The model is counted up to the grid's largest order, and the greedy
    reference cuts are parsed once for the whole grid.
    """
    raw_windows = [build_morph_model(lexicon, max(spec.n)).windows]
    words, freqs = tuple(lexicon.entries), tuple(lexicon.entries.values())
    references = reference_cuts(lexicon, inventory)
    return _sweep(spec, raw_windows, words,
                  lambda line_levels, bins: MorphWalk(words, freqs, references, *line_levels, bins))


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


def summarize(records: Sequence[TrialRecord]) -> CorrelationSummary:
    """Correlate F1 with every metric column and find each column's argmax."""
    valid = [r for r in records if r.error is None and r.report is not None]
    if len(valid) < 2:
        raise DataError(f"need at least 2 valid trial records, got {len(valid)}")
    correlations: dict[str, float | None] = {}
    argmax: dict[str, SegmenterParams | None] = {}
    for column in METRIC_COLUMNS:
        scored = [(r, v) for r in valid if (v := getattr(r.report, column)) is not None]
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


def write_trials_csv(records: Sequence[TrialRecord], path: str | Path, config: dict) -> None:
    """Trial table with 9-significant-digit floats and LF line endings.

    ``config`` is echoed in a leading ``# config:`` comment. The
    ``wall_time_ms`` column is kept in the layout and always reads 0.
    """
    buf = io.StringIO()
    buf.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
    buf.write(CSV_HEADER + "\n")
    for r in records:
        fields = [
            str(r.params.n),
            _format_field(r.params.peak),
            str(r.params.prune),
            r.params.mode,
            *(_format_field(getattr(r.report, column, None)) for column in MetricsReport._fields),
            "0",
            (r.error or "").replace("\n", " ").replace(",", ";"),
        ]
        buf.write(",".join(fields) + "\n")
    Path(path).write_bytes(buf.getvalue().encode("utf-8"))


def write_summary_json(summary: CorrelationSummary, path: str | Path, config: dict) -> None:
    """The summary's correlations and argmax parameters, floats at 9 significant digits, with ``config``."""
    payload = {
        "pearson_f1_vs": {k: _round9(v) for k, v in summary.pearson_f1_vs.items()},
        "argmax_params": {
            k: (None if p is None else p._asdict() | {"peak": _round9(p.peak)})
            for k, p in summary.argmax_params.items()
        },
        "config": config,
    }
    Path(path).write_bytes((json.dumps(payload, sort_keys=True) + "\n").encode("utf-8"))
