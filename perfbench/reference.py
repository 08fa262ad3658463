"""Independent reference for the outputs the benchmark checks.

Everything here is recomputed from the definitions in the repository README,
with no code shared with ``tlab``:

- a model is a table of (n+1)-character window counts per order, counted
  with a ``Counter`` over slices; the forward edge (gram, next char) and the
  backward edge (gram, previous char) are read off the same window;
- freedom is a gram's out-degree among edges whose count reaches the prune
  threshold, and a profile divides it by the order's largest out-degree;
- a gap is cut where the forward profile rises, or the backward profile
  drops, by at least the peak threshold (``union`` takes either);
- boundary F1 is micro-averaged over lines on the whitespace-stripped
  stream; anti-entropy is 1 - H/log2(L) over token frequencies; the
  compression factor is (tokens + summed lengths of distinct tokens) / chars;
  cross-split F1 scores the segmentations of two interleaved-half models
  against each other, averaged over both directions.

``python3 perfbench/reference.py`` runs the self-checks on hand-worked values.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Sequence


def window_counts(lines: Iterable[str], size: int, weights: Iterable[int] | None = None) -> Counter:
    """Count every in-line window of ``size`` characters, each adding its line's weight."""
    if weights is None:
        return Counter(line[i : i + size] for line in lines for i in range(len(line) - size + 1))
    counts: Counter = Counter()
    for line, weight in zip(lines, weights):
        for i in range(len(line) - size + 1):
            counts[line[i : i + size]] += weight
    return counts


def degrees(windows: Counter, direction: str, min_count: int) -> dict[str, int]:
    """Out-degree of each gram over the edges whose count is at least ``min_count``.

    A window w of n+1 characters is the forward edge (w[:-1], w[-1]) and the
    backward edge (w[1:], w[0]); distinct windows are distinct edges.
    """
    keep = max(1, min_count)
    out: Counter = Counter()
    for window, count in windows.items():
        if count >= keep:
            out[window[:-1] if direction == "fwd" else window[1:]] += 1
    return dict(out)


class Segmenter:
    """Cuts lines with one (n, prune) slice of a window-count table."""

    def __init__(self, windows: Counter, n: int, prune: int) -> None:
        self.n = n
        self.fwd = degrees(windows, "fwd", prune)
        self.bwd = degrees(windows, "bwd", prune)
        self.fwd_top = max(self.fwd.values(), default=0)
        self.bwd_top = max(self.bwd.values(), default=0)

    def profiles(self, line: str) -> tuple[list[float], list[float]]:
        """Normalized freedom at gaps 1..len-1, forward and backward."""
        n, length = self.n, len(line)
        fwd = [0.0] * (length - 1)
        bwd = [0.0] * (length - 1)
        if self.fwd_top:
            for gap in range(n, length):
                fwd[gap - 1] = self.fwd.get(line[gap - n : gap], 0) / self.fwd_top
        if self.bwd_top:
            for gap in range(1, length - n + 1):
                bwd[gap - 1] = self.bwd.get(line[gap : gap + n], 0) / self.bwd_top
        return fwd, bwd

    def cuts(self, line: str, peak: float, mode: str) -> list[int]:
        """Gaps where the forward rise or the backward drop reaches ``peak``."""
        fwd, bwd = self.profiles(line)
        last = len(fwd) - 1
        out = []
        for k in range(len(fwd)):
            rise = fwd[k] - (fwd[k - 1] if k > 0 else 0.0)
            drop = bwd[k] - (bwd[k + 1] if k < last else 0.0)
            if (mode != "bwd" and rise >= peak) or (mode != "fwd" and drop >= peak):
                out.append(k + 1)
        return out


def split_at(line: str, cuts: Sequence[int]) -> list[str]:
    bounds = [0, *cuts, len(line)]
    return [line[a:b] for a, b in zip(bounds, bounds[1:])]


def stripped_boundaries(tokens: Sequence[str]) -> tuple[str, set[int]]:
    """The whitespace-stripped stream of a token sequence and its internal cut positions."""
    stream = []
    bounds = set()
    pos = 0
    for token in tokens:
        if pos:
            bounds.add(pos)
        kept = "".join(token.split())
        stream.append(kept)
        pos += len(kept)
    bounds.discard(pos)
    return "".join(stream), bounds


def boundary_tally(pred: Sequence[Sequence[str]], ref: Sequence[Sequence[str]]) -> tuple[int, int, int]:
    """(tp, fp, fn) of predicted against reference boundaries, summed over lines."""
    if len(pred) != len(ref):
        raise ValueError(f"{len(pred)} predicted lines against {len(ref)} reference lines")
    tp = fp = fn = 0
    for p_tokens, r_tokens in zip(pred, ref):
        p_stream, p_bounds = stripped_boundaries(p_tokens)
        r_stream, r_bounds = stripped_boundaries(r_tokens)
        if p_stream != r_stream:
            raise ValueError(f"streams differ: {p_stream!r} vs {r_stream!r}")
        tp += len(p_bounds & r_bounds)
        fp += len(p_bounds - r_bounds)
        fn += len(r_bounds - p_bounds)
    return tp, fp, fn


def f1(tp: int, fp: int, fn: int) -> float:
    """Harmonic mean of precision and recall; nothing expected and nothing found is 1."""
    if tp == 0:
        return 1.0 if fp == 0 and fn == 0 else 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


def anti_entropy(freq: Counter) -> float:
    """1 - H/log2(L) over a token frequency table with L distinct tokens."""
    total = sum(freq.values())
    if len(freq) <= 1:
        return 1.0
    entropy = -math.fsum((c / total) * math.log2(c / total) for c in freq.values())
    return min(1.0, max(0.0, 1.0 - entropy / math.log2(len(freq))))


def compression_factor(freq: Counter) -> float:
    """(token count + summed lengths of distinct tokens) / character count."""
    tokens = sum(freq.values())
    chars = sum(len(t) * c for t, c in freq.items())
    return (tokens + sum(len(t) for t in freq)) / chars


def token_freq(token_lines: Iterable[Sequence[str]]) -> Counter:
    """Token frequencies, leaving out whitespace-only tokens."""
    freq: Counter = Counter()
    for tokens in token_lines:
        freq.update(t for t in tokens if not t.isspace())
    return freq


def cross_split_f1(train: Sequence[str], test: Sequence[str], n: int, peak: float, prune: int, mode: str) -> float:
    """Segment ``test`` with models of the even and odd train lines; F1 of each against the other."""
    half_a = Segmenter(window_counts(train[0::2], n + 1), n, prune)
    half_b = Segmenter(window_counts(train[1::2], n + 1), n, prune)
    seg_a = [split_at(line, half_a.cuts(line, peak, mode)) for line in test]
    seg_b = [split_at(line, half_b.cuts(line, peak, mode)) for line in test]
    tp, fp, fn = boundary_tally(seg_a, seg_b)
    return (f1(tp, fp, fn) + f1(tp, fn, fp)) / 2


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float | None:
    """Sample correlation of two series; None when either is constant."""
    mean_x = math.fsum(xs) / len(xs)
    mean_y = math.fsum(ys) / len(ys)
    cov = math.fsum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = math.fsum((x - mean_x) ** 2 for x in xs)
    var_y = math.fsum((y - mean_y) ** 2 for y in ys)
    if var_x == 0.0 or var_y == 0.0:
        return None
    return cov / math.sqrt(var_x * var_y)


def self_check() -> None:
    """Hand-worked values; raises AssertionError on a mismatch."""
    checks = {
        "anti-entropy {a:3, b:1}": (anti_entropy(Counter(a=3, b=1)), 0.188722),
        "anti-entropy of one token type": (anti_entropy(Counter(a=5)), 1.0),
        "anti-entropy {a:1, b:1}": (anti_entropy(Counter(a=1, b=1)), 0.0),
        "compression factor of 'abab' as one token": (compression_factor(Counter(abab=1)), 1.25),
        "compression factor of 'ab','ab'": (compression_factor(Counter(ab=2)), 1.0),
        "F1 of cuts {2} against {2, 4}": (f1(*boundary_tally([["ab", "cdef"]], [["ab", "cd", "ef"]])), 2 / 3),
        "F1 of no cuts against no cuts": (f1(*boundary_tally([["abc"]], [["abc"]])), 1.0),
        "pearson of (1, 2, 3) and (2, 4, 7)": (pearson([1, 2, 3], [2, 4, 7]), 0.993399),
    }
    for name, (got, want) in checks.items():
        if abs(got - want) > 5e-7:
            raise AssertionError(f"{name}: {got} != {want}")

    if window_counts(["abab"], 2) != Counter(ab=2, ba=1):
        raise AssertionError("window counts of 'abab'")
    if window_counts(["ab", "ab"], 2, weights=[3, 4]) != Counter(ab=7):
        raise AssertionError("weighted window counts")
    # training lines "ab" and "ac": 'a' has two successors, 'b' and 'c' one predecessor each
    seg = Segmenter(window_counts(["ab", "ac"], 2), 1, 0)
    if (seg.fwd, seg.bwd) != ({"a": 2}, {"b": 1, "c": 1}):
        raise AssertionError(f"degrees {seg.fwd} {seg.bwd}")
    if seg.profiles("abc") != ([1.0, 0.0], [1.0, 1.0]):
        raise AssertionError(f"profiles {seg.profiles('abc')}")
    if (seg.cuts("abc", 0.5, "fwd"), seg.cuts("cab", 0.5, "fwd"), seg.cuts("cab", 0.5, "bwd")) != ([1], [2], [2]):
        raise AssertionError("cut rule")
    if Segmenter(window_counts(["ab", "ac"], 2), 1, 2).cuts("abc", 0.0, "union") != [1, 2]:
        raise AssertionError("pruned to nothing, every gap has a zero rise")
    if stripped_boundaries(["ab ", " ", "cd"]) != ("abcd", {2}):
        raise AssertionError("whitespace tokens collapse onto one boundary")


if __name__ == "__main__":
    self_check()
    print("reference self-checks passed")
