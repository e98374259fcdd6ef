"""Benchmark of the sumatoms verification engine.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 40 --trace 0

Workloads: ``catalog`` and ``family-large`` (see
``perfbench/README.md``).  The run repeats passes of the workload until
about ``--seconds`` of pass time have been measured and the workload's
minimum pass count is met, checking every output; set-up is timed
several times before and between the passes.  With ``--trace 0`` the last line of
standard output carries the end-to-end metrics.  With ``--trace 1`` untraced
passes for half of ``--seconds``, without the minimums, are followed by a
traced set-up and as many traced passes, and the last line carries the
per-layer metrics and the tracing overhead.
The line before it holds the details: environment, sample counts, failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Sequence

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# Untraced runs of a workload whose state passes reuse set up at least
# SETUP_REPEATS times before the first pass and for at least SETUP_SLICE_S
# before every later one, so the set-up samples span the run like the passes
# do.  A workload whose passes consume the state sets up once before each pass.
SETUP_REPEATS = 3
SETUP_SLICE_S = 0.1

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "item_p50_s": "s",
    "item_p90_s": "s",
    "peak_rss_mb": "MB",
}

# Span names whose metric is self time rather than inclusive time.
SELF_TIME_SPANS = {"classify.hypothesis_holds", "family.classify_example"}
TIMED_SPANS = (
    "groups.construct",
    "groups.closure_mask",
    "groups.enumerate_subgroups",
    "groups.double_coset_mask",
    "sumsets.boundary_witness",
    "sumsets.find_atoms",
    "sumsets.find_fragments",
    "sumsets.oracle_atoms",
    "sumsets.separability",
    "sumsets.normalize",
    "classify.hypothesis_holds",
    "classify.structured_witness",
    "classify.progression",
    "classify.case_ii",
    "classify.case_iii",
    "classify.two_coset",
    "digraphs.build_quotient",
    "digraphs.transitivity",
    "digraphs.arc_connectivity",
    "digraphs.atom_check",
    "family.verify_example",
    "family.classify_example",
    "reports.render",
)
COUNTED_SPANS = (
    "groups.construct",
    "groups.closure_mask",
    "groups.enumerate_subgroups",
    "groups.double_coset_mask",
    "sumsets.boundary_witness",
    "sumsets.find_atoms",
    "sumsets.find_fragments",
    "sumsets.oracle_atoms",
    "sumsets.separability",
    "sumsets.normalize",
    "classify.hypothesis_holds",
    "classify.structured_witness",
    "classify.progression",
)
COUNT_ONLY = ("bitset.permute_mask_calls", "sumsets.product_mask_calls")
# (metric, span, counter tag): calls tagged by the wrapper over all calls.
RATIOS = (
    ("groups.subgroup_cache_hit_ratio", "groups.enumerate_subgroups", "cache_hit"),
    ("groups.double_coset_pair_ratio", "groups.double_coset_mask", "pair"),
    ("sumsets.boundary_witness_found_ratio", "sumsets.boundary_witness", "found"),
    ("classify.hypothesis_true_ratio", "classify.hypothesis_holds", "true"),
    ("classify.progression_found_ratio", "classify.progression", "found"),
)


def percentile(values: Sequence[float], p: float) -> float:
    """The p-th percentile, interpolating linearly between closest ranks."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(samples: int) -> Optional[float]:
    """Highest of p50, p90, p99, p99.9 with at least 10 samples beyond it."""
    for tenths in (999, 990, 900, 500):
        if samples * (1000 - tenths) // 1000 >= 10:
            return tenths / 10
    return None


@dataclass
class Phase:
    """Passes of one phase and the set-ups made during it."""

    tallies: list[Any] = field(default_factory=list)
    pass_seconds: list[float] = field(default_factory=list)
    setup_seconds: list[float] = field(default_factory=list)
    # Peak RSS once the first pass is done, so it does not grow with the
    # number of passes that fit in the run.
    first_pass_peak_rss_mb: float = 0.0

    @property
    def attempted(self) -> int:
        return sum(t.attempted for t in self.tallies)

    @property
    def failed(self) -> int:
        return sum(t.failed for t in self.tallies)


def set_up(workload: Any, phase: Phase, count: int, min_seconds: float) -> Any:
    """Set up at least ``count`` times and ``min_seconds``; keep the last state."""
    spent = 0.0
    done = 0
    while done < count or spent < min_seconds:
        state = None  # let the previous state go before building the next
        t0 = time.perf_counter()
        state = workload.setup()
        dt = time.perf_counter() - t0
        phase.setup_seconds.append(dt)
        spent += dt
        done += 1
    return state


def run_passes(
    workload: Any,
    seconds: float,
    passes: Optional[int] = None,
    setup_slice: Optional[float] = None,
    minimums: bool = True,
) -> Phase:
    """Closed loop of passes: a fixed count, or until the time and minimum counts are met.

    Without ``setup_slice`` the phase sets up once, and again only when a
    pass has consumed the state.  Without ``minimums`` the workload's minimum
    pass count is not enforced.
    """
    from workloads import Tally

    phase = Phase()
    state = None

    def more() -> bool:
        done = len(phase.tallies)
        if passes is not None:
            return done < passes
        # Another pass only if it would end nearer to ``seconds`` than
        # stopping now, so a run of long passes measures about ``seconds``.
        half_pass = statistics.median(phase.pass_seconds) / 2 if done else 0.0
        return (
            done == 0
            or sum(phase.pass_seconds) + half_pass < seconds
            or (minimums and done < workload.min_passes)
        )

    while more():
        if state is None or (setup_slice is not None and workload.reuse_state):
            repeat = setup_slice is not None and workload.reuse_state
            first = repeat and not phase.tallies
            state = set_up(
                workload, phase, SETUP_REPEATS if first else 1, setup_slice if repeat else 0.0
            )
        tally = Tally()
        t0 = time.perf_counter()
        workload.run_pass(state, len(phase.tallies), tally)
        phase.pass_seconds.append(time.perf_counter() - t0)
        phase.tallies.append(tally)
        if len(phase.tallies) == 1:
            phase.first_pass_peak_rss_mb = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            )
        if not workload.reuse_state:
            state = None
    return phase


def end_to_end_metrics(phase: Phase) -> dict[str, float]:
    latencies = [x for t in phase.tallies for x in t.latencies]
    wall = statistics.median(phase.pass_seconds)
    # Items of a mean pass over the median pass time: a median, like wall_s,
    # so one pass slowed by the host does not move it.
    items_per_pass = sum(t.items for t in phase.tallies) / len(phase.tallies)
    return {
        "setup_s": statistics.median(phase.setup_seconds),
        "wall_s": wall,
        "items_per_s": items_per_pass / wall,
        "item_p50_s": percentile(latencies, 50),
        "item_p90_s": percentile(latencies, 90),
        "peak_rss_mb": phase.first_pass_peak_rss_mb,
    }


def layer_metrics(
    tracer: spans.Tracer, traced: Phase, untraced: Phase
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per traced pass, plus the tracing overhead."""
    passes = len(traced.tallies)
    totals = tracer.totals()
    counts = tracer.call_counts()
    blank = {"calls": 0, "s": 0.0, "self_s": 0.0}
    out: dict[str, tuple[float, str]] = {}
    for name in TIMED_SPANS:
        row = totals.get(name, blank)
        seconds = row["self_s"] if name in SELF_TIME_SPANS else row["s"]
        out[name + "_s"] = (seconds / passes, "s")
    for name in COUNTED_SPANS:
        out[name + "_calls"] = (totals.get(name, blank)["calls"] / passes, "count")
    for name in COUNT_ONLY:
        out[name] = (counts.get(name, 0) / passes, "count")
    for metric, name, tag in RATIOS:
        calls = totals.get(name, blank)["calls"]
        out[metric] = (counts.get(f"{name}.{tag}", 0) / calls if calls else 0.0, "ratio")
    for method in spans.ARC_METHODS:
        key = f"digraphs.arc_connectivity.method.{method}"
        out[f"digraphs.arc_connectivity_calls.{method}"] = (counts.get(key, 0) / passes, "count")
    sweep = totals.get("sweeps.main_theorem", blank)
    out["sweeps.self_s"] = (sweep["self_s"] / passes, "s")
    generating = sum(t.extra.get("generating", 0) for t in traced.tallies)
    hypothesis_calls = totals.get("classify.hypothesis_holds", blank)["calls"]
    out["sweeps.hypothesis_cache_hit_ratio"] = (
        1 - hypothesis_calls / generating if generating else 0.0,
        "ratio",
    )
    out["reports.bytes"] = (traced.tallies[-1].extra.get("report_bytes", 0), "bytes")
    base = statistics.median(untraced.pass_seconds)
    overhead = statistics.median(traced.pass_seconds) - base
    out["trace.overhead_s"] = (overhead, "s")
    out["trace.overhead_frac"] = (overhead / base, "ratio")
    out["trace.spans"] = (len(tracer.start) / passes, "count")
    return out


def environment() -> dict[str, Any]:
    import numpy

    revision = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=30,
            )
            revision = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            revision = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "sumatoms").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_revision": revision,
        "src_sha256": digest.hexdigest(),
    }


def phase_details(phase: Phase) -> dict[str, Any]:
    latencies = [x for t in phase.tallies for x in t.latencies]
    tail = tail_percentile(len(latencies))
    return {
        "passes": len(phase.tallies),
        "pass_seconds": phase.pass_seconds,
        "calls": len(latencies),
        "tail_percentile": tail,
        "tail_latency_s": percentile(latencies, tail) if tail is not None else None,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "errors": [e for t in phase.tallies for e in t.errors][:20],
    }


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("catalog", "family-large")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "sumatoms" / "__init__.py").is_file():
        print(f"perfbench: no sumatoms package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import EXCLUDED_INPUTS, WORKLOADS, failed_fraction

    workload = WORKLOADS[args.workload](args.seed)
    spans.require_unwrapped()
    # A traced run splits --seconds between its untraced and traced phases.
    # The workload minimums serve the end-to-end metrics, which it does not
    # print, so it skips them.
    untraced = run_passes(
        workload,
        args.seconds / 2 if args.trace else args.seconds,
        setup_slice=SETUP_SLICE_S,
        minimums=not args.trace,
    )
    spans.require_unwrapped()
    phases = [untraced]
    details: dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(),
        "setups": len(untraced.setup_seconds),
        "untraced": phase_details(untraced),
        "excluded_inputs": list(EXCLUDED_INPUTS),
    }
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = run_passes(workload, args.seconds, passes=len(untraced.tallies))
        finally:
            tracer.uninstall()
        phases.append(traced)
        metrics = layer_metrics(tracer, traced, untraced)
        details["traced"] = phase_details(traced)
        details["untraced_targets"] = tracer.missing
        OUT_DIR.mkdir(exist_ok=True)
        spans_file = OUT_DIR / f"spans-{args.workload}.npz"
        tracer.write(str(spans_file))
        details["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        values = end_to_end_metrics(untraced)
        metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    details["failed_frac"] = failed_fraction(attempted, failed)
    print(json.dumps({"details": details}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
