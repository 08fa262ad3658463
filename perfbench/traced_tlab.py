"""Run one tlab command with timers around the public functions of its modules.

    python3 perfbench/traced_tlab.py STATS_JSON TLAB_ARGS...

behaves like ``tlab TLAB_ARGS...`` and then writes per-function call counts
and summed span times to STATS_JSON. The timers are installed from outside
the program: every name in a ``tlab`` module that is bound to a traced
function is rebound to a timing wrapper, so callers (``tlab.lab.profile``,
``tlab.cli.build_model``, ...) reach the wrapper without a change to ``src/``.

For the functions in SPANNED it also records, per call, the time covered by
the wrapped calls made beneath it (in any thread, including pool threads,
which are attributed to the main thread's innermost open span) and the
process CPU time, giving self time and idle time.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import threading
import time

TRACED = (
    "cli.main",
    "corpus.load_text", "corpus.load_gold", "corpus.save_segmented", "corpus.load_segmented",
    "ngram.build_model", "ngram.prune", "ngram.save_model", "ngram.load_model",
    "segmenter.profile", "segmenter.detect_boundaries", "segmenter.segment", "segmenter.segment_corpus",
    "metrics.project_cuts", "metrics.boundary_counts", "metrics.token_stats", "metrics.cross_split_f1",
    "morphology.greedy_parse", "morphology.weighted_morph_f1", "morphology.build_morph_model",
    "lab.run_grid", "lab.run_morph_grid", "lab.write_trials_csv", "lab.summarize",
)
SPANNED = frozenset({"cli.main", "lab.run_grid", "lab.run_morph_grid", "segmenter.segment_corpus"})


class _Frame:
    """An open spanned call: how much of its time wrapped calls beneath it cover."""

    __slots__ = ("active", "since", "covered", "lock")

    def __init__(self) -> None:
        self.active = 0
        self.since = 0.0
        self.covered = 0.0
        self.lock = threading.Lock()

    def enter(self, now: float) -> None:
        with self.lock:
            if not self.active:
                self.since = now
            self.active += 1

    def leave(self, now: float) -> None:
        with self.lock:
            self.active -= 1
            if not self.active:
                self.covered += now - self.since


class Tracer:
    def __init__(self) -> None:
        self.local = threading.local()
        self.all_totals: list = []  # one per thread, appended under the interpreter lock
        self.main_stack: list = []
        self.local.stack = self.main_stack
        self.local.totals = self._new_totals()
        self.spans: dict[str, list] = {name: [] for name in SPANNED}
        self.extra = {"lab.trials": 0, "ngram.save_model.bytes": 0}

    def _new_totals(self) -> list:
        totals = [[0, 0.0] for _ in TRACED]
        self.all_totals.append(totals)
        return totals

    def _thread_state(self) -> list:
        self.local.stack = []
        self.local.totals = self._new_totals()
        return self.local.stack

    def wrap(self, index: int, fn, after=None):
        name = TRACED[index]
        spans = self.spans.get(name)
        local, main_stack = self.local, self.main_stack
        perf, cpu = time.perf_counter, time.process_time

        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = self._thread_state()
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else None)
            frame = _Frame() if spans is not None else None
            stack.append(frame)
            cpu_start = cpu() if spans is not None else 0.0
            start = perf()
            if parent is not None:
                parent.enter(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                if parent is not None:
                    parent.leave(end)
                stack.pop()
                total = local.totals[index]
                total[0] += 1
                total[1] += end - start
                if spans is not None:
                    spans.append((end - start, frame.covered, cpu() - cpu_start))
            if after is not None:
                after(result, *args)
            return result

        return traced

    def install(self) -> None:
        importlib.import_module("tlab.cli")  # and with it every module the command line uses
        modules = [m for name, m in sys.modules.items() if name == "tlab" or name.startswith("tlab.")]
        after = {
            "lab.run_grid": self._count_trials,
            "lab.run_morph_grid": self._count_trials,
            "ngram.save_model": self._count_bytes,
        }
        for index, qualname in enumerate(TRACED):
            module_name, func_name = qualname.split(".")
            original = getattr(sys.modules["tlab." + module_name], func_name)
            wrapped = self.wrap(index, original, after.get(qualname))
            for module in modules:
                for attr in [a for a, value in vars(module).items() if value is original]:
                    setattr(module, attr, wrapped)

    def _count_trials(self, records, *args) -> None:
        self.extra["lab.trials"] += len(records)

    def _count_bytes(self, result, model, path) -> None:
        self.extra["ngram.save_model.bytes"] += os.path.getsize(path)

    def stats(self) -> dict:
        out = dict(self.extra)
        for index, name in enumerate(TRACED):
            out[name + ".calls"] = sum(t[index][0] for t in self.all_totals)
            out[name + ".s"] = sum(t[index][1] for t in self.all_totals)
        for name, spans in self.spans.items():
            out[name + ".self_s"] = sum(span - covered for span, covered, _ in spans)
            out[name + ".idle_s"] = sum(span - cpu for span, _, cpu in spans)
        return out


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from tlab import cli

    try:
        return cli.main(argv)
    finally:
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.stats(), fh, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main())
