"""Outside-in tracing of linquo's layers for the benchmark's traced pass.

The tracer wraps the public functions of each layer by replacing them in every
``linquo`` module namespace that binds them, so callers reach the wrapper
through the same attribute lookup as before and ``src/`` carries no tracing
code.  Spans (name, start, end, parent) stay in memory until the pass ends;
counts are read from the wrapped functions' return values.

A part is a layer, or one of the sub-layers of ``linquot`` and
``orderings``.  A part's self time is the summed duration of its spans minus
the parts of those intervals covered by their child spans.  The enumeration
functions are generators, so each ``next()`` on them is one span.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from importlib import import_module
from pathlib import Path

# part -> (module, public functions of that part)
PARTS: dict[str, tuple[str, tuple[str, ...]]] = {
    "graphs.classify": (
        "linquo.graphs",
        (
            "is_gapfree",
            "is_chordal",
            "is_cochordal",
            "is_cdcc",
            "contains_induced",
            "matching_number",
            "is_independent",
        ),
    ),
    "harness.enum": (
        "linquo.harness",
        ("all_labeled_graphs", "nonisomorphic_graphs", "canonical_form"),
    ),
    "power_ideals.gens": ("linquo.power_ideals", ("power_generators",)),
    "linquot.verify": ("linquo.linquot", ("verify_linear_quotients",)),
    "linquot.search": ("linquo.linquot", ("find_lq_order",)),
    "linquot.transport": ("linquo.linquot", ("duplication_order", "expansion_order")),
    "orderings.construct": (
        "linquo.orderings",
        ("efficient_ordering", "compatible_orders"),
    ),
    "orderings.edge_order": (
        "linquo.orderings",
        ("admissible_order", "is_admissible", "pure_power_edge_sequence"),
    ),
}

# The per-layer metrics, in print order: name -> unit.
METRICS: dict[str, str] = {
    "graphs.classify_s": "s",
    "graphs.classify_calls": "count",
    "harness.enum_s": "s",
    "harness.enum_graphs_in": "count",
    "harness.enum_classes_out": "count",
    "power_ideals.gens_s": "s",
    "power_ideals.calls": "count",
    "power_ideals.multisets": "count",
    "power_ideals.gens": "count",
    "linquot.verify_s": "s",
    "linquot.verify_calls": "count",
    "linquot.verify_pairs": "count",
    "linquot.verify_failed": "count",
    "linquot.search_s": "s",
    "linquot.search_calls": "count",
    "linquot.search_nodes": "count",
    "linquot.search_backtracks": "count",
    "linquot.search_unknown": "count",
    "linquot.search_backtrack_ratio": "ratio",
    "linquot.transport_s": "s",
    "linquot.transport_gens_out": "count",
    "orderings.construct_s": "s",
    "orderings.construct_calls": "count",
    "orderings.gens_out": "count",
    "orderings.products_per_gen": "ratio",
    "orderings.edge_order_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.covered_frac": "ratio",
}

_PART_TIME = {
    "graphs.classify": "graphs.classify_s",
    "harness.enum": "harness.enum_s",
    "power_ideals.gens": "power_ideals.gens_s",
    "linquot.verify": "linquot.verify_s",
    "linquot.search": "linquot.search_s",
    "linquot.transport": "linquot.transport_s",
    "orderings.construct": "orderings.construct_s",
    "orderings.edge_order": "orderings.edge_order_s",
}


def _count_power_generators(c, call, result, outer):
    c["power_ideals.calls"] += 1
    c["power_ideals.multisets"] += len(result.multiset_index)
    c["power_ideals.gens"] += result.count


def _count_verify(c, call, result, outer):
    r = len(result.per_index_variables)
    c["linquot.verify_calls"] += 1
    c["linquot.verify_pairs"] += r * (r - 1) // 2
    c["linquot.verify_failed"] += not result.passed


def _count_search(c, call, result, outer):
    c["linquot.search_calls"] += 1
    c["linquot.search_nodes"] += result.nodes
    c["linquot.search_backtracks"] += result.backtracks
    c["linquot.search_unknown"] += result.status == "unknown"


def _count_classify(c, call, result, outer):
    c["graphs.classify_calls"] += outer


def _count_transport(c, call, result, outer):
    if outer:
        c["linquot.transport_gens_out"] += len(result)


_COUNTERS = {
    "graphs.classify": _count_classify,
    "power_ideals.gens": _count_power_generators,
    "linquot.verify": _count_verify,
    "linquot.search": _count_search,
    "linquot.transport": _count_transport,
}

# Items yielded by the enumeration generators.
_YIELD_COUNTERS = {
    "all_labeled_graphs": "harness.enum_graphs_in",
    "nonisomorphic_graphs": "harness.enum_classes_out",
}


class Tracer:
    """Spans and counts of one traced pass; install it with ``installed()``."""

    def __init__(self):
        self.names: list[str] = []
        self.part_of: list[str] = []
        # [name id, start, end, parent span index or -1]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        # (ideal, input power, output power, input length) per construction
        self.extensions: list[tuple] = []
        self._stack: list[int] = []

    def _name_id(self, name: str, part: str) -> int:
        self.names.append(name)
        self.part_of.append(part)
        return len(self.names) - 1

    def _open(self, name_id: int) -> tuple[list, bool]:
        stack = self._stack
        parent = stack[-1] if stack else -1
        outer = parent < 0 or (
            self.part_of[self.spans[parent][0]] != self.part_of[name_id]
        )
        span = [name_id, 0.0, 0.0, parent]
        stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span, outer

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name_id: int, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span, outer = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                count(self.counts, (args, kwargs), result, outer)
            return result

        return wrapper

    def _wrap_generator(self, fn, name_id: int, counter: str | None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                span, _ = self._open(name_id)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(span)
                if counter is not None:
                    self.counts[counter] += 1
                yield item

        return wrapper

    def _count_construct(self, fn):
        sig = inspect.signature(fn)
        base_param = "o" if "o" in sig.parameters else "o2"

        def count(c, call, result, outer):
            base = sig.bind(*call[0], **call[1]).arguments[base_param]
            c["orderings.construct_calls"] += 1
            c["orderings.gens_out"] += len(result)
            self.extensions.append((result.base.ideal, base.base.q, result.base.q, len(base)))

        return count

    @contextmanager
    def installed(self):
        """Wrap every part's functions wherever a linquo module binds them."""
        modules = [
            m
            for name, m in list(sys.modules.items())
            if name == "linquo" or name.startswith("linquo.")
        ]
        replaced: list[tuple[object, str, object]] = []
        try:
            for part, (modname, fnames) in PARTS.items():
                module = import_module(modname)
                for fname in fnames:
                    orig = getattr(module, fname)
                    name_id = self._name_id(f"{modname}.{fname}", part)
                    if inspect.isgeneratorfunction(orig):
                        wrapper = self._wrap_generator(orig, name_id, _YIELD_COUNTERS.get(fname))
                    elif part == "orderings.construct":
                        wrapper = self._wrap(orig, name_id, self._count_construct(orig))
                    else:
                        wrapper = self._wrap(orig, name_id, _COUNTERS.get(part))
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is orig:
                                replaced.append((m, attr, orig))
                                setattr(m, attr, wrapper)
            yield self
        finally:
            for m, attr, orig in reversed(replaced):
                setattr(m, attr, orig)

    def self_times(self) -> Counter:
        """Self time per part, summed over its spans."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Counter = Counter({part: 0.0 for part in PARTS})
        for k, (name_id, start, end, _) in enumerate(spans):
            out[self.part_of[name_id]] += (end - start) - covered[k]
        return out

    def products_formed(self, generator_count) -> int:
        """Products formed by the recorded constructions.

        Each extension step multiplies every generator of the order going in
        by every edge, so a construction from power q to power s forms
        edges * (N_q + ... + N_{s-1}) products, N_k being the generator count
        of the k-th power; ``generator_count(ideal, k)`` supplies the counts
        of the intermediate powers.
        """
        total = 0
        for ideal, q, s, n_in in self.extensions:
            if s > q:
                inner = sum(generator_count(ideal, k) for k in range(q + 1, s))
                total += ideal.nedges * (n_in + inner)
        return total

    def metrics(self, traced_wall: float, untraced_wall: float, generator_count) -> dict:
        """Every per-layer metric, by name."""
        c = self.counts
        selfs = self.self_times()
        values: dict[str, float] = {name: 0 for name in METRICS}
        values.update({k: c[k] for k in METRICS if k in c})
        for part, metric in _PART_TIME.items():
            values[metric] = selfs[part]
        nodes = c["linquot.search_nodes"]
        values["linquot.search_backtrack_ratio"] = (
            c["linquot.search_backtracks"] / nodes if nodes else 0.0
        )
        gens_out = c["orderings.gens_out"]
        values["orderings.products_per_gen"] = (
            self.products_formed(generator_count) / gens_out if gens_out else 0.0
        )
        values["trace.overhead_frac"] = traced_wall / untraced_wall - 1
        values["trace.covered_frac"] = sum(selfs.values()) / traced_wall
        return values

    def write(self, path: Path, t0: float) -> None:
        """Write the spans as JSON, times in seconds from ``t0``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [[n, s - t0, e - t0, p] for n, s, e, p in self.spans]
        with open(path, "w") as fh:
            json.dump(
                {"names": self.names, "parts": self.part_of, "spans": rows},
                fh,
                separators=(",", ":"),
            )
