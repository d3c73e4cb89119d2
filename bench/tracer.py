"""Spans around calls into reljoint's public functions, recorded from the
benchmark's side: while installed, each traced function is replaced, in
every reljoint module that refers to it, by a wrapper that records a span
and a few counters taken from its return value. Nothing inside the
package is instrumented.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable


def _clue_counts(clue_set) -> dict[str, float]:
    typed = [*clue_set.sr, *clue_set.ro, *clue_set.rer]
    return {
        "clues.type_clues": len(typed),
        "clues.finite_type_clues": sum(1 for c in typed if math.isfinite(c.k_score)),
    }


# "module.function" -> counters read off the return value (or None)
TRACED: dict[str, Callable | None] = {
    "synth.generate": None,
    "kb.load_triples": lambda kb: {"kb.facts": len(kb)},
    "clues.mine_clues": None,
    "clues.load_clue_file": _clue_counts,
    "candidates.load_predictions": lambda by_pair: {
        "candidates.mentions": sum(len(m) for m in by_pair.values())
    },
    "candidates.build_pair_candidates": lambda pairs: {"candidates.pairs": len(pairs)},
    "constraints.generate_hard": lambda result: {
        "constraints.decision_vars": len(result[0]),
        "constraints.hard_rows": len(result[1]),
    },
    "constraints.soften": lambda result: {"constraints.aux_vars": len(result[1].aux_vars)},
    "ilp.build_model": None,
    "ilp.decompose": None,
    "ilp.solve": lambda solution: {
        "ilp.nodes": solution.stats.nodes,
        "ilp.components": solution.stats.components,
    },
    "evaluate.mintzpp": None,
    "evaluate.rule_based": None,
    "evaluate.ranked_from_solution": None,
    "evaluate.write_ranked_predictions": None,
    "evaluate.pr_curve": None,
    "evaluate.diff_analysis": None,
}


class Tracer:
    """Spans of one traced stretch of work (a pass or a set-up round).

    A span is [name, start, end, parent index]; `self_ms()` gives each
    name's total duration minus the time covered by its child spans."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def _wrap(self, name: str, fn: Callable, count: Callable | None) -> Callable:
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, time.perf_counter(), None, parent])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()
            if count is not None:
                self.counts.update(count(result))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Swap every reference to a traced function for its wrapper."""
        swapped: list[tuple[object, str, Callable]] = []
        try:
            for dotted, count in TRACED.items():
                module_name, fn_name = dotted.split(".")
                original = getattr(importlib.import_module(f"reljoint.{module_name}"), fn_name)
                wrapper = self._wrap(dotted, original, count)
                for module in list(sys.modules.values()):
                    if not getattr(module, "__name__", "").startswith("reljoint"):
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            swapped.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(swapped):
                setattr(module, attr, original)

    def self_ms(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _parent), covered in zip(self.spans, child):
            totals[name] += (end - start - covered) * 1000.0
        return dict(totals)
