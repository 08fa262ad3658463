"""Work counts for the tests that bound an operation's cost."""

from __future__ import annotations

import sys


def line_events(func, *args):
    """``func(*args)`` and the number of line events run in the frames it enters, counted by :func:`sys.settrace`."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        count += event == "line"
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        result = func(*args)
    finally:
        sys.settrace(previous)
    return result, count
