"""Independent brute-force reference for the freedom-peak segmenter.

Everything here recomputes window counts, freedom values, profiles and
derivatives directly from the raw training lines on every call. It shares
no code with the package under test.
"""

from __future__ import annotations


def window_counts(lines, weights, n, direction):
    """Count every (gram, adjacent char) incidence by direct enumeration."""
    counts = {}
    for line, w in zip(lines, weights):
        for i in range(len(line) - n):
            if direction == "fwd":
                pair = (line[i : i + n], line[i + n])
            else:
                pair = (line[i + 1 : i + 1 + n], line[i])
            counts[pair] = counts.get(pair, 0) + w
    return counts


def bf_successors(lines, weights, n, direction, min_count):
    keep = max(1, min_count)
    succ = {}
    for (gram, ch), count in window_counts(lines, weights, n, direction).items():
        if count >= keep:
            succ.setdefault(gram, set()).add(ch)
    return succ


def bf_freedom(lines, weights, gram, direction, min_count=0):
    succ = bf_successors(lines, weights, len(gram), direction, min_count)
    return len(succ.get(gram, ()))


def bf_max_freedom(lines, weights, n, direction, min_count=0):
    succ = bf_successors(lines, weights, n, direction, min_count)
    return max((len(s) for s in succ.values()), default=0)


def bf_profile(lines, weights, line, n, direction, min_count=0):
    length = len(line)
    if length < 2:
        return []
    top = bf_max_freedom(lines, weights, n, direction, min_count)
    values = []
    for i in range(1, length):
        if direction == "fwd":
            gram = line[i - n : i] if i >= n else None
        else:
            gram = line[i : i + n] if i + n <= length else None
        if top == 0 or gram is None:
            values.append(0.0)
        else:
            values.append(bf_freedom(lines, weights, gram, direction, min_count) / top)
    return values


def bf_segment(lines, weights, line, n, theta, min_count, mode):
    length = len(line)
    if length == 1:
        return [line]
    fwd = bf_profile(lines, weights, line, n, "fwd", min_count)
    bwd = bf_profile(lines, weights, line, n, "bwd", min_count)
    cuts = []
    for i in range(1, length):
        hit = False
        if mode in ("fwd", "union"):
            rise = fwd[i - 1] - (fwd[i - 2] if i >= 2 else 0.0)
            if rise >= theta:
                hit = True
        if not hit and mode in ("bwd", "union"):
            drop = bwd[i - 1] - (bwd[i] if i <= length - 2 else 0.0)
            if drop >= theta:
                hit = True
        if hit:
            cuts.append(i)
    tokens = []
    prev = 0
    for cut in cuts:
        tokens.append(line[prev:cut])
        prev = cut
    tokens.append(line[prev:])
    return tokens
