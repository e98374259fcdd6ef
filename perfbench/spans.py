"""Span and counter recording for the traced benchmark run.

The tracer rebinds selected ``sumatoms`` functions, in every ``sumatoms``
module namespace that holds them, to thin wrappers that record a span (name,
start, end, parent) or only bump a call counter.  Nothing under ``src/`` is
edited: the wrappers live here and :meth:`Tracer.uninstall` puts every
original binding back.  Spans stay in memory, in flat arrays, until the run
ends.
"""

from __future__ import annotations

import array
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

WRAPPER_MARK = "__perfbench_span__"

Outcome = Callable[[tuple, Any], Optional[str]]


@dataclass(frozen=True)
class Target:
    """One function to rebind.

    ``span`` is the metric prefix; several functions may share one.  A
    ``count_only`` target records no span, because the function is too hot
    for one.  ``before`` sees the arguments and ``outcome`` the arguments and
    the result; each may name a counter (``<span>.<tag>``) to bump.
    """

    span: str
    module: str
    attr: str
    count_only: bool = False
    before: Optional[Callable[[tuple], Optional[str]]] = None
    outcome: Optional[Outcome] = None


def _subgroup_cache_state(args: tuple) -> Optional[str]:
    return "cache_hit" if getattr(args[0], "_subgroups", None) is not None else None


def _double_coset_pair(args: tuple, result: int) -> Optional[str]:
    return "pair" if result.bit_count() == args[1].bit_count() ** 2 else None


def _found(args: tuple, result: Any) -> Optional[str]:
    return "found" if result is not None else None


def _holds(args: tuple, result: Any) -> Optional[str]:
    return "true" if result.holds else None


# ``ArcCutReport.method`` values, with "+" made metric-safe; "other" catches new ones.
ARC_METHODS = ("flow", "flow_enumeration", "exhaustive", "transitive-sweep", "other")


def _arc_method(args: tuple, result: Any) -> Optional[str]:
    tag = result.method.replace("+", "_")
    return "method." + (tag if tag in ARC_METHODS else "other")


_CONSTRUCTORS = (
    "make_cyclic",
    "make_dihedral",
    "make_semidirect",
    "direct_product",
    "load_group_table",
    "restrict_to_subgroup",
)

TARGETS: tuple[Target, ...] = (
    *(Target("groups.construct", "sumatoms.groups", name) for name in _CONSTRUCTORS),
    Target("groups.closure_mask", "sumatoms.groups", "closure_mask"),
    Target(
        "groups.enumerate_subgroups",
        "sumatoms.groups",
        "enumerate_subgroups",
        before=_subgroup_cache_state,
    ),
    Target(
        "groups.double_coset_mask",
        "sumatoms.groups",
        "double_coset_mask",
        outcome=_double_coset_pair,
    ),
    Target("bitset.permute_mask", "sumatoms.bitset", "permute_mask", count_only=True),
    Target("sumsets.product_mask", "sumatoms.sumsets", "product_mask", count_only=True),
    Target(
        "sumsets.boundary_witness", "sumatoms.sumsets", "boundary_witness", outcome=_found
    ),
    Target("sumsets.find_atoms", "sumatoms.sumsets", "find_atoms"),
    Target("sumsets.find_fragments", "sumatoms.sumsets", "find_fragments"),
    Target("sumsets.oracle_atoms", "sumatoms.sumsets", "oracle_atoms"),
    Target("sumsets.separability", "sumatoms.sumsets", "_separability_witness"),
    Target("sumsets.normalize", "sumatoms.sumsets", "normalize"),
    Target(
        "classify.hypothesis_holds", "sumatoms.classify", "hypothesis_holds", outcome=_holds
    ),
    Target(
        "classify.structured_witness", "sumatoms.classify", "_structured_boundary_witness"
    ),
    Target(
        "classify.progression",
        "sumatoms.classify",
        "detect_geometric_progression",
        outcome=_found,
    ),
    Target("classify.case_ii", "sumatoms.classify", "find_case_ii_subgroup"),
    Target("classify.case_iii", "sumatoms.classify", "find_case_iii_witness"),
    Target("classify.two_coset", "sumatoms.classify", "verify_two_coset_theorem"),
    Target("digraphs.build_quotient", "sumatoms.digraphs", "build_quotient_graph"),
    Target(
        "digraphs.transitivity", "sumatoms.digraphs", "verify_translation_transitivity"
    ),
    Target(
        "digraphs.arc_connectivity",
        "sumatoms.digraphs",
        "arc_connectivity",
        outcome=_arc_method,
    ),
    Target("digraphs.atom_check", "sumatoms.digraphs", "arc_atom_cardinality_check"),
    Target("family.verify_example", "sumatoms.family", "verify_example"),
    Target("family.classify_example", "sumatoms.family", "classify_example"),
    Target("sweeps.main_theorem", "sumatoms.sweeps", "sweep_main_theorem"),
    Target("reports.render", "sumatoms.reports", "sweep_pairs"),
    Target("reports.render", "sumatoms.reports", "render_kv"),
)


def package_modules() -> list[Any]:
    """The loaded ``sumatoms`` modules, the package itself included."""
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "sumatoms" or name.startswith("sumatoms."))
    ]


def require_unwrapped() -> None:
    """Raise unless every binding in the package is an original function."""
    found = [
        f"{mod.__name__}.{key}"
        for mod in package_modules()
        for key, value in vars(mod).items()
        if hasattr(value, WRAPPER_MARK)
    ]
    if found:
        raise RuntimeError(f"traced wrappers still bound: {', '.join(found)}")


def self_times(
    start: Sequence[int], end: Sequence[int], parent: Sequence[int]
) -> list[int]:
    """Each span's duration minus the part of its interval its children cover.

    Spans must be listed in start order, so each span follows its parent and
    a parent's children appear in start order; overlapping children count
    once and a child's overhang outside the parent counts not at all.
    """
    n = len(start)
    covered = [0] * n
    covered_until = list(start)
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], covered_until[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            covered_until[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]


class Tracer:
    """Records spans around rebound ``sumatoms`` functions."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.parent = array.array("q")
        self.counts: dict[str, int] = {}
        self._cells: dict[str, list[int]] = {}
        self._stack = [-1]
        self._bound: list[tuple[Any, str, Any]] = []
        self.missing: list[str] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _bump(self, key: str) -> None:
        self.counts[key] = self.counts.get(key, 0) + 1

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        if target.count_only:
            cell = self._cells.setdefault(target.span + "_calls", [0])

            def counted(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)

            wrapper = counted
        else:
            nid = self._id(target.span)
            open_, close, bump = self._open, self._close, self._bump
            before, outcome, prefix = target.before, target.outcome, target.span + "."

            def spanned(*args, **kwargs):
                if before is not None:
                    tag = before(args)
                    if tag is not None:
                        bump(prefix + tag)
                idx = open_(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close(idx)
                if outcome is not None:
                    tag = outcome(args, result)
                    if tag is not None:
                        bump(prefix + tag)
                return result

            wrapper = spanned
        setattr(wrapper, WRAPPER_MARK, target.span)
        return wrapper

    # -- rebinding ---------------------------------------------------------

    def install(self) -> None:
        """Rebind every target in every ``sumatoms`` namespace that holds it."""
        require_unwrapped()
        for target in TARGETS:
            defining = importlib.import_module(target.module)
            original = getattr(defining, target.attr, None)
            if original is None:
                self.missing.append(f"{target.module}.{target.attr}")
                continue
            wrapper = self._wrap(target, original)
            for mod in package_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._bound.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        """Restore every original binding, then check that none is left wrapped."""
        for mod, key, original in reversed(self._bound):
            setattr(mod, key, original)
        restored = self._bound
        self._bound = []
        require_unwrapped()
        for mod, key, original in restored:
            if getattr(mod, key) is not original:
                raise RuntimeError(f"{mod.__name__}.{key} was not restored")

    # -- results -----------------------------------------------------------

    def call_counts(self) -> dict[str, int]:
        """Counters from count-only wrappers and from outcome hooks."""
        out = dict(self.counts)
        out.update((key, cell[0]) for key, cell in self._cells.items())
        return out

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        own = self_times(self.start, self.end, self.parent)
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i, nid in enumerate(self.name_id):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["s"] += (self.end[i] - self.start[i]) / 1e9
            row["self_s"] += own[i] / 1e9
        return out

    def write(self, path: str) -> None:
        """Write the spans out as arrays: names, name_id, start, end, parent (ns)."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
        )
