"""Shared hypothesis strategies."""

from __future__ import annotations

import hypothesis.strategies as st

SMALL_ALPHABET = "abcdef"


def small_lines(alphabet: str = SMALL_ALPHABET, max_lines: int = 20, max_len: int = 12):
    return st.lists(
        st.text(alphabet=alphabet, min_size=1, max_size=max_len),
        min_size=1,
        max_size=max_lines,
    )


def weights_for(lines):
    return st.lists(
        st.integers(min_value=1, max_value=5), min_size=len(lines), max_size=len(lines)
    )


def corpora_with_weights(**kwargs):
    return small_lines(**kwargs).flatmap(
        lambda ls: st.tuples(st.just(ls), weights_for(ls))
    )


peak_thresholds = st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0])
prune_thresholds = st.integers(min_value=0, max_value=4)
orders = st.integers(min_value=1, max_value=4)
modes = st.sampled_from(["fwd", "bwd", "union"])
