"""In-memory span recorder that wraps public stampset functions.

The tracer never edits the package: while installed it replaces each
listed function, in every loaded ``stampset`` module that holds it, by a
wrapper that records a span (name, start, end, parent).  Library code
that calls the function through its module globals therefore records
spans too.  Spans stay in memory until the caller takes them.  Spans
are kept per process, so install the tracer only around work that runs
in this process.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter
from typing import Callable

# (module, function) pairs that mark layer boundaries; span names are
# "<module>.<function>".
LAYERS = (
    ("core", "exceptional_profile"),
    ("core", "n_fold_sumset"),
    ("modular", "growth_profile"),
    ("verifier", "check_structure"),
    ("verifier", "min_threshold"),
    ("verifier", "all_n_criterion"),
    ("verifier", "placement_check"),
    ("families", "classify_exceptional_family"),
    ("scan", "scan_theorems"),
    ("cli", "main"),
)

# Span names whose results are counted: a hit is a result the predicate
# accepts, so hits / calls is the layer's useful-outcome ratio.
HIT_PREDICATES: dict[str, Callable[[object], bool]] = {
    "verifier.placement_check": lambda result: result.hypothesis_met,
    "families.classify_exceptional_family": lambda result: bool(result),
}


class Tracer:
    def __init__(self) -> None:
        self.names = [f"{module}.{function}" for module, function in LAYERS]
        self._patches: list[tuple[object, str, object]] = []
        self.clear()

    def clear(self) -> None:
        self._name_ids = array("i")
        self._starts = array("d")
        self._ends = array("d")
        self._parents = array("i")
        self._stack: list[int] = []
        self.hits = {name: 0 for name in HIT_PREDICATES}

    def spans(self) -> list[tuple[str, float, float, int]]:
        return [
            (self.names[name_id], start, end, parent)
            for name_id, start, end, parent in zip(
                self._name_ids, self._starts, self._ends, self._parents
            )
        ]

    def _wrap(self, name_id: int, original: Callable) -> Callable:
        name = self.names[name_id]
        hit = HIT_PREDICATES.get(name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(self._starts)
            self._name_ids.append(name_id)
            self._parents.append(self._stack[-1] if self._stack else -1)
            self._ends.append(0.0)
            self._stack.append(index)
            self._starts.append(perf_counter())
            try:
                result = original(*args, **kwargs)
            finally:
                self._ends[index] = perf_counter()
                self._stack.pop()
            if hit is not None and hit(result):
                self.hits[name] += 1
            return result

        return traced

    def install(self) -> None:
        for module_name, _ in LAYERS:
            importlib.import_module(f"stampset.{module_name}")
        modules = [
            module
            for key, module in list(sys.modules.items())
            if key == "stampset" or key.startswith("stampset.")
        ]
        for name_id, (module_name, function) in enumerate(LAYERS):
            original = getattr(sys.modules[f"stampset.{module_name}"], function)
            wrapper = self._wrap(name_id, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
