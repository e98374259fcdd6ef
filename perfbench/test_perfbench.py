"""Tests of the benchmark's own helpers.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import AtomsOracle, Tally, failed_fraction  # noqa: E402


# -- self time ---------------------------------------------------------------


def test_self_time_without_children_is_duration():
    assert spans.self_times([0, 100], [50, 130], [-1, -1]) == [50, 30]


def test_self_time_subtracts_nested_children():
    # root [0, 100] with children [10, 30] and [40, 70]; grandchild [45, 55].
    start = [0, 10, 40, 45]
    end = [100, 30, 70, 55]
    parent = [-1, 0, 0, 2]
    assert spans.self_times(start, end, parent) == [50, 20, 20, 10]


def test_self_time_counts_overlapping_children_once():
    start = [0, 10, 20]
    end = [100, 40, 50]
    parent = [-1, 0, 0]
    assert spans.self_times(start, end, parent)[0] == 60


def test_self_time_ignores_child_overhang():
    # The child outlives its parent's recorded end by 20.
    assert spans.self_times([0, 80], [100, 120], [-1, 0])[0] == 80


# -- percentiles -------------------------------------------------------------


@pytest.mark.parametrize(
    "samples, expected",
    [(0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
     (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(samples, expected):
    assert run.tail_percentile(samples) == expected


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0, 5.0]
    assert run.percentile(values, 50) == 3.0
    assert run.percentile(values, 90) == pytest.approx(4.6)
    assert run.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        run.percentile([], 50)


# -- failed_frac -------------------------------------------------------------


def test_tally_counts_exceptions_and_false_checks_as_failed():
    tally = Tally()

    def boom():
        raise ValueError("bad input")

    assert tally.call("ok", lambda: (True, "")) is True
    assert tally.call("wrong value", lambda: (False, "lambda_1 = 3")) is False
    assert tally.call("raises", boom) is False
    tally.check("bulk", True, ops=7)
    tally.check("skipped", False, "skipped", ops=2)
    assert len(tally.latencies) == 3
    assert (tally.attempted, tally.failed) == (12, 4)
    assert tally.errors[0] == "wrong value: lambda_1 = 3"
    assert tally.errors[1].startswith("raises: ValueError: bad input at ")
    assert failed_fraction(tally.attempted, tally.failed) == pytest.approx(4 / 12)


def test_failed_fraction_rejects_impossible_counts():
    assert failed_fraction(5, 0) == 0.0
    with pytest.raises(ValueError):
        failed_fraction(0, 0)
    with pytest.raises(ValueError):
        failed_fraction(3, 4)


# -- rebinding ---------------------------------------------------------------


def test_tracer_rebinds_every_namespace_and_restores_originals():
    sumsets = importlib.import_module("sumatoms.sumsets")
    classify = importlib.import_module("sumatoms.classify")
    groups = importlib.import_module("sumatoms.groups")
    original = sumsets.boundary_witness
    spans.require_unwrapped()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert hasattr(sumsets.boundary_witness, spans.WRAPPER_MARK)
        assert classify.boundary_witness is sumsets.boundary_witness
        with pytest.raises(RuntimeError):
            spans.require_unwrapped()
        group = groups.make_cyclic(6)
        s = groups.GroupSubset.from_indices(group, [0, 1, 3])
        classify.hypothesis_holds(group, s)
    finally:
        tracer.uninstall()
    spans.require_unwrapped()
    assert sumsets.boundary_witness is original
    assert classify.boundary_witness is original
    totals = tracer.totals()
    assert totals["groups.construct"]["calls"] == 1
    assert totals["classify.hypothesis_holds"]["calls"] == 1
    calls = tracer.call_counts()
    assert calls["bitset.permute_mask_calls"] > 0
    # Children are nested inside the hypothesis span, so its self time is smaller.
    hyp = totals["classify.hypothesis_holds"]
    assert 0 < hyp["self_s"] < hyp["s"]
    assert tracer.missing == []


# -- metric names ------------------------------------------------------------


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == run.END_TO_END_UNITS

    tracer = spans.Tracer()
    tally = Tally()
    phase = run.Phase(tallies=[tally], pass_seconds=[1.0])
    layers = run.layer_metrics(tracer, phase, phase)
    declared_layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared_layers == {name: unit for name, (_, unit) in layers.items()}


# -- atoms-oracle schedule ---------------------------------------------------


def test_atoms_schedule_is_the_same_for_every_seed():
    def schedule(seed):
        pool = AtomsOracle(seed).setup()
        return [[(i.group, i.k, i.subset.mask.bit_count()) for i in p] for p in pool]

    first, second = schedule(1), schedule(2)
    assert first == second
    sizes = {size for p in first for (group, _, size) in p if group != "C2xC2xC2xC2"}
    assert sizes == set(AtomsOracle.SET_SIZES)
    # No S of size 3 or 4 generates C2xC2xC2xC2, so it gets the next size that does.
    assert {size for p in first for (group, _, size) in p if group == "C2xC2xC2xC2"} <= {5, 6}


# -- end-to-end metrics -----------------------------------------------------


def test_end_to_end_rates_divide_by_the_median_pass():
    tallies = [Tally(latencies=[1.0, 2.0, 3.0], items=6) for _ in range(3)]
    phase = run.Phase(tallies=tallies, pass_seconds=[2.0, 9.0, 1.0], setup_seconds=[0.5])
    values = run.end_to_end_metrics(phase)
    assert values["wall_s"] == 2.0
    assert values["items_per_s"] == pytest.approx(3.0)
    assert values["item_p50_s"] == 2.0
    assert values["setup_s"] == 0.5


# -- run length --------------------------------------------------------------


class _FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def perf_counter(self) -> float:
        return self.now


class _FixedPasses:
    """A workload whose every pass takes ``pass_s`` on the fake clock."""

    reuse_state = True

    def __init__(self, clock, pass_s, min_passes=1):
        self.clock, self.pass_s = clock, pass_s
        self.min_passes = min_passes

    def setup(self):
        self.clock.now += 0.01
        return object()

    def run_pass(self, state, index, tally):
        self.clock.now += self.pass_s
        tally.latencies.append(self.pass_s)


@pytest.mark.parametrize(
    "pass_s, min_passes, expected",
    [(10.0, 1, 4), (14.0, 1, 3), (16.0, 1, 2), (20.0, 1, 2), (20.0, 3, 3), (60.0, 1, 1)],
)
def test_run_ends_nearest_to_its_seconds(monkeypatch, pass_s, min_passes, expected):
    clock = _FakeClock()
    monkeypatch.setattr(run, "time", clock)
    workload = _FixedPasses(clock, pass_s, min_passes)
    phase = run.run_passes(workload, 40, setup_slice=run.SETUP_SLICE_S)
    assert len(phase.tallies) == expected
    assert len(phase.setup_seconds) >= run.SETUP_REPEATS

