"""Spans around entroflow's public functions, recorded from outside the package.

The traced run wraps each function in LAYERS. Modules import names from
each other (``from .partitions import join``), so a wrapper replaces the
function in every ``entroflow`` module namespace that binds it; the
classes ``Partition`` and ``PartitionFlow`` are traced through their
``__init__``. Spans stay in memory until the run ends. A span's self time
is its duration minus the durations of its direct children, which are
nested inside it because the program is single threaded.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

#: Module -> public names whose calls are recorded as spans.
LAYERS = {
    "partitions": ("Partition", "make_space", "join", "entropy", "is_coarsening"),
    "lattice": ("gibbs_space", "rg_entropy_flow"),
    "flows": ("PartitionFlow", "detect_limit_point"),
    "dynamics": ("parse_system_spec", "pullback_partition", "info_rate_report",
                 "theorem_limit_point_check"),
    "ising": ("log_partition_function", "partition_function_bruteforce",
              "rg_step_closed", "rg_step_oracle", "rg_trajectory"),
    "cli": ("run", "validate_config", "atomic_write_text"),
}

#: Work counted at the span boundaries, per operation.
COUNTS = ("partitions.points", "partitions.atoms", "lattice.configs",
          "dynamics.words", "cli.bytes_out")


def _engine_words(bound: inspect.BoundArguments) -> int:
    """Word-table entries the dynamics word engine materializes for a report.

    Zero for permutation systems, whose joins are counted as partitions.
    """
    system = bound.arguments["system"]
    if not hasattr(system, "alphabet_size"):
        return 0
    m = system.alphabet_size
    partition = bound.arguments["partition"]
    groups = m if partition is None else partition.n_atoms
    n_max = bound.arguments["n_max"]
    if groups == m:
        return sum(m**n for n in range(1, n_max + 1))
    return sum(groups**n * m for n in range(1, n_max + 1))


class Tracer:
    """Records spans and counts while installed; restores the program on uninstall."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, function, count=None):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op])
            self._stack.append(index)
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index][1:3] = start, end
            if count is not None:
                count(args, kwargs, result)
            return result
        return traced

    def _counter(self, name: str, function):
        """The count hook recorded at a span boundary, if the span has one."""
        counts = self.counts
        if name == "partitions.Partition":
            def count(args, kwargs, result):
                counts["partitions.points"] += args[0].space.size
                counts["partitions.atoms"] += args[0].n_atoms
        elif name == "lattice.gibbs_space":
            def count(args, kwargs, result):
                counts["lattice.configs"] += result.configs.shape[0]
        elif name == "dynamics.info_rate_report":
            signature = inspect.signature(function)

            def count(args, kwargs, result):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counts["dynamics.words"] += _engine_words(bound)
        elif name == "cli.atomic_write_text":
            def count(args, kwargs, result):
                text = args[1] if len(args) > 1 else kwargs["text"]
                counts["cli.bytes_out"] += len(text.encode())
        else:
            count = None
        return count

    def install(self) -> None:
        import entroflow  # noqa: F401  (loads every layer module)

        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "entroflow" or n.startswith("entroflow.")]
        for module_name, names in LAYERS.items():
            module = sys.modules[f"entroflow.{module_name}"]
            for name in names:
                span = f"{module_name}.{name}"
                original = getattr(module, name)
                if isinstance(original, type):
                    init = original.__init__
                    self._restore.append((original, "__init__", init))
                    original.__init__ = self._wrap(span, init, self._counter(span, init))
                    continue
                traced = self._wrap(span, original, self._counter(span, original))
                for namespace in namespaces:
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            self._restore.append((namespace, attr, original))
                            setattr(namespace, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def per_operation(self, operations: int) -> dict[str, float]:
        """Self milliseconds, calls and counts per operation, by metric name."""
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for name, start, end, parent, _ in self.spans:
            self_s[name] += end - start
            calls[name] += 1
            if parent >= 0:
                parent_span = self.spans[parent]
                self_s[parent_span[0]] -= end - start
        metrics = {}
        for span in (f"{m}.{n}" for m, names in LAYERS.items() for n in names):
            metrics[f"{span}.self_ms"] = 1000.0 * self_s[span] / operations
            metrics[f"{span}.calls"] = calls[span] / operations
        for name in COUNTS:
            metrics[name] = self.counts[name] / operations
        return metrics

    def write(self, path: Path) -> None:
        """All spans as JSON lines: name, start, end, parent index, operation."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
