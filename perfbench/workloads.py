"""The two benchmark workloads and the parts of ``catalog``.

Each workload is a closed loop with one client: the verifier issues one call
into ``sumatoms``, waits for the result, checks it and issues the next.  A
pass is a fixed list of calls; the runner repeats passes.  ``setup`` builds
and validates the groups and inputs of a pass and is timed on its own.

Every ``sumatoms`` function is looked up on its module at call time, so the
traced run sees the wrappers that :mod:`spans` binds there.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import random
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

from sumatoms import catalog, digraphs, family, groups, reports, sumsets, sweeps

# The package re-exports the function ``classify`` under the submodule's name.
classify = importlib.import_module("sumatoms.classify")

# Inputs left out on purpose: each ran past its limit without output on the
# seed code, so timing it would time a hang.  They wait for a node budget in
# the fragment search, which can then add a workload for them.
EXCLUDED_INPUTS = (
    "classify on the SD(23,11) family set with element 241 removed "
    "(no result within 90 s)",
    'sumatoms atoms --cyclic 40 --set "0 1 5 17" --k 3 (over 60 s)',
    'sumatoms atoms --cyclic 60 --set "0 1 5 17" --k 2 (over 60 s)',
    'sumatoms atoms --cyclic 120 --set "0 1 5 17" --k 2 (over 60 s)',
    'sumatoms classify --cyclic 200 --set "0 1 3 9 27 81" (over 60 s)',
)


@dataclass
class Tally:
    """Calls, their latencies and the operations that failed, for one pass."""

    latencies: list[float] = field(default_factory=list)
    items: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    extra: dict[str, float] = field(default_factory=dict)

    def check(self, label: str, ok: bool, detail: str = "", ops: int = 1) -> None:
        """Count ``ops`` operations, all failed unless ``ok``."""
        self.attempted += ops
        if not ok:
            self.failed += ops
            self.errors.append(f"{label}: {detail}" if detail else label)

    def attempt(self, label: str, fn: Callable[[], tuple[bool, str]]) -> bool:
        """Run one checked operation; an exception or a false check fails it."""
        try:
            ok, detail = fn()
        except Exception as exc:  # a failing call is recorded, not fatal
            where = traceback.extract_tb(exc.__traceback__)[-1]
            ok = False
            detail = f"{type(exc).__name__}: {exc} at {Path(where.filename).name}:{where.lineno}"
        self.check(label, ok, detail)
        return ok

    @contextmanager
    def timed(self) -> Iterator[None]:
        """Record the body's duration as the latency of one call."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.latencies.append(time.perf_counter() - t0)

    def call(self, label: str, fn: Callable[[], tuple[bool, str]]) -> bool:
        """One timed call that is also one checked operation."""
        with self.timed():
            return self.attempt(label, fn)


def failed_fraction(attempted: int, failed: int) -> float:
    """Failed operations over attempted ones."""
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failed of {attempted} attempted")
    return failed / attempted


class Workload:
    name = ""
    # A run makes at least min_passes passes.
    min_passes = 1
    # False when a pass consumes its state, so each pass needs a fresh setup.
    reuse_state = True

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> Any:
        raise NotImplementedError

    def run_pass(self, state: Any, index: int, tally: Tally) -> None:
        raise NotImplementedError


class CatalogSweep(Workload):
    """Exhaustive main-theorem sweep over the catalog up to MAX_ORDER.

    The first part of a ``catalog`` pass.  Seed-independent.  The sweep plus
    its machine report is one untimed operation, so the latencies of a
    ``catalog`` run are those of the atoms instances; the report must hash to
    the digest recorded from the seed code.
    """

    MAX_ORDER = 15
    REPORT_SHA256 = "f98ca65dda0ede50bcc1d4ff81b7379ef767348d5d153e59f4800fd4af00a494"
    GENERATING = 45698

    def setup(self) -> Any:
        # The sweep builds its own groups; these are built to time construction.
        return [catalog.build_group(spec) for spec in catalog.catalog_specs(self.MAX_ORDER)]

    def run_pass(self, state: Any, index: int, tally: Tally) -> None:
        out: dict[str, Any] = {}

        def sweep() -> tuple[bool, str]:
            result = sweeps.sweep_main_theorem(self.MAX_ORDER, workers=1)
            text = reports.render_kv(reports.sweep_pairs(result))
            out["result"], out["text"] = result, text
            digest = hashlib.sha256(text.encode()).hexdigest()
            return digest == self.REPORT_SHA256, f"report digest {digest}"

        tally.attempt("catalog report digest", sweep)
        result = out.get("result")
        if result is None:
            tally.check("catalog sweep raised", False, ops=self.GENERATING)
            return
        generating = sum(row.generating for row in result.rows)
        failures = len(result.failures)
        tally.attempted += generating
        tally.failed += min(failures, generating)
        tally.errors.extend(result.failures[:5])
        tally.extra["generating"] = generating
        tally.extra["report_bytes"] = len(out["text"].encode())


# Exact values the seed code computes for each family member; lambda_k is the
# arc k-connectivity of the member's quotient digraph (lambda_1 = q).
FAMILY_EXPECTED = {
    (23, 11): {"checks": 15, "lambda": {1: 11, 2: 21, 3: 30}},
    (47, 23): {"checks": 15, "lambda": {1: 23, 2: 45, 3: 66}},
}


class FamilyLarge(Workload):
    """The SD(23,11) and SD(47,23) members, through the example/classify path
    and then on each member's quotient digraph."""

    name = "family-large"
    # classify fills the group's subgroup cache, so each pass gets fresh groups.
    reuse_state = False
    # At least two passes and so two set-ups, however slow the host.
    min_passes = 2

    def setup(self) -> Any:
        return [family.build_example(p, q) for p, q in FAMILY_EXPECTED]

    def run_pass(self, state: Any, index: int, tally: Tally) -> None:
        # One call is one member's whole pipeline, as one CLI run would do it;
        # each step inside it is one checked operation.
        for inst in state:
            with tally.timed():
                self._member(inst, tally)
        tally.items = tally.attempted - tally.failed

    def _member(self, inst: Any, tally: Tally) -> None:
        expected = FAMILY_EXPECTED[(inst.p, inst.q)]
        tag = f"SD({inst.p},{inst.q})"
        got: dict[str, Any] = {}

        def verify() -> tuple[bool, str]:
            transcript = family.verify_example(inst)
            passed = sum(1 for e in transcript if e.passed)
            ok = passed == len(transcript) == expected["checks"]
            return ok, f"{passed}/{len(transcript)} checks passed"

        def classify_member() -> tuple[bool, str]:
            result = family.classify_example(inst)
            got["result"] = result
            ok = result.case is classify.Case.CASE_III and result.verified
            return ok, f"case {result.case.value}, verified {result.verified}"

        def corollary() -> tuple[bool, str]:
            verdict = classify.check_corollary_bound(inst.group, inst.subset, got["result"])
            return verdict.applicable and verdict.passed, f"{verdict}"

        def two_coset() -> tuple[bool, str]:
            verdict = classify.verify_two_coset_theorem(inst.group, inst.subset)
            statuses = {p.name: p.status for p in verdict.preconditions}
            ok = (
                verdict.applicable
                and verdict.holds is True
                and "failed" not in statuses.values()
                and statuses.get("kappa1_certificate") == "verified"
            )
            return ok, f"holds {verdict.holds}, statuses {statuses}"

        def quotient() -> tuple[bool, str]:
            graph = digraphs.build_quotient_graph(inst.group, inst.subgroup, inst.a)
            got["graph"] = graph
            return graph.vertex_count == inst.p, f"{graph.vertex_count} vertices"

        def transitivity() -> tuple[bool, str]:
            verdict = digraphs.verify_translation_transitivity(
                got["graph"], inst.group, inst.subgroup, inst.a
            )
            got["transitive"] = verdict.passed
            return verdict.passed and verdict.degree == inst.q, f"{verdict.failures[:3]}"

        def lambda_1() -> tuple[bool, str]:
            report = digraphs.arc_connectivity(
                got["graph"], 1, arc_transitive=got["transitive"]
            )
            return report.lam == inst.q, f"lambda_1 = {report.lam}, method {report.method}"

        def atom_check(k: int) -> Callable[[], tuple[bool, str]]:
            def run() -> tuple[bool, str]:
                verdict = digraphs.arc_atom_cardinality_check(
                    got["graph"], k, arc_transitive=True
                )
                ok = verdict.passed and verdict.lam == expected["lambda"][k]
                return ok, f"lambda_{k} = {verdict.lam}, checks {verdict.checks}"

            return run

        steps = [
            ("verify_example", verify),
            ("classify_example", classify_member),
            ("corollary_bound", corollary),
            ("two_coset", two_coset),
            ("build_quotient", quotient),
            ("transitivity", transitivity),
            ("lambda_1", lambda_1),
            *((f"atom_check_k{k}", atom_check(k)) for k in (1, 2, 3)),
        ]
        for i, (label, step) in enumerate(steps):
            if not tally.attempt(f"{tag} {label}", step) and label in (
                "classify_example",
                "build_quotient",
            ):
                # Later steps need this result; count each of them as failed.
                for later, _ in steps[i + 1 :]:
                    tally.check(f"{tag} {later}", False, "skipped")
                return


@dataclass(frozen=True)
class AtomsInstance:
    group: str
    subset: Any
    k: int


class AtomsOracle(Workload):
    """Seeded random (G, S, k): the fast atom search against the exhaustive oracle.

    The second part of a ``catalog`` pass.  One pass is one schedule: for
    each order 16 to 20, one instance of each |S| in 3 to 6 with each k in 1
    and 2, while the group of each order rotates through the catalog groups
    of that order.  Every seed and every
    pass gets the same mix of orders, |S| and k; the elements of S (with 1,
    generating, k-separable) come from the seed.  The latency of an instance
    depends mostly on its order, |S| and k, so whole schedules as passes keep
    the pass times of one run, and of different seeds, close.  With orders
    equally weighted, p50 falls among order-18 and p90 among order-20
    instances rather than between two orders.
    """

    ORDERS = (16, 17, 18, 19, 20)
    SET_SIZES = (3, 4, 5, 6)
    KS = (1, 2)
    # Draws of S at one size before the size grows: a group may need more
    # generators than the scheduled size allows (C2xC2xC2xC2 needs 4 besides 1).
    DRAWS_PER_SIZE = 200
    POOL_PASSES = 8
    # find_fragments lists at most this many fragments of each size by default.
    FRAGMENT_LISTING_CAP = 256

    def setup(self) -> Any:
        by_order: dict[int, list[Any]] = {order: [] for order in self.ORDERS}
        for spec in catalog.catalog_specs(max(self.ORDERS)):
            if spec.order in by_order:
                by_order[spec.order].append(catalog.build_group(spec))
        rng = random.Random(f"atoms-oracle:{self.seed}")
        schedule = list(itertools.product(self.SET_SIZES, self.KS))
        return [
            [
                self._instance(rng, built[(i + c) % len(built)], size, k)
                for built in by_order.values()
                for c, (size, k) in enumerate(schedule)
            ]
            for i in range(self.POOL_PASSES)
        ]

    def _instance(self, rng: random.Random, group: Any, size: int, k: int) -> AtomsInstance:
        n = group.order
        full = (1 << n) - 1
        draws = 0
        while True:
            if draws == self.DRAWS_PER_SIZE:
                size, draws = size + 1, 0
            draws += 1
            members = [groups.IDENTITY, *rng.sample(range(1, n), size - 1)]
            if groups.closure_mask(group, members) != full:
                continue
            subset = groups.GroupSubset.from_indices(group, members)
            if sumsets.is_k_separable(subset, k):
                return AtomsInstance(group.name, subset, k)

    def run_pass(self, state: Any, index: int, tally: Tally) -> None:
        for inst in state[index % len(state)]:
            label = f"{inst.group} S={{{inst.subset.to_literal()}}} k={inst.k}"
            tally.call(label, self._certify(inst))

    def _certify(self, inst: AtomsInstance) -> Callable[[], tuple[bool, str]]:
        def run() -> tuple[bool, str]:
            fast = sumsets.find_atoms(inst.subset, inst.k)
            fragments = sumsets.find_fragments(inst.subset, inst.k)
            oracle = sumsets.oracle_atoms(inst.subset, inst.k)
            fragment_masks = {f.mask for f in fragments}
            ok = (
                fast.same_result(oracle)
                and all(a.mask in fragment_masks for a in oracle.atoms)
                and len(fragments) <= oracle.fragment_count
                and (
                    oracle.fragment_count > self.FRAGMENT_LISTING_CAP
                    or len(fragments) == oracle.fragment_count
                )
            )
            counts = f"fragments {len(fragments)}/{oracle.fragment_count}"
            return ok, f"kappa {fast.kappa}/{oracle.kappa}, {counts}"

        return run


class Catalog(Workload):
    """The small-group traffic: a pass is the catalog sweep up to order 15,
    then one atoms-oracle schedule over orders 16 to 20.

    The two share a workload so that each run measures both for long enough
    to average out the drift in the host's speed.
    """

    name = "catalog"
    # Three passes of 40 instances: enough for the p90 latency to have 12
    # samples beyond it.
    min_passes = 3

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.sweep = CatalogSweep(seed)
        self.atoms = AtomsOracle(seed)

    def setup(self) -> Any:
        return self.sweep.setup(), self.atoms.setup()

    def run_pass(self, state: Any, index: int, tally: Tally) -> None:
        self.sweep.run_pass(state[0], index, tally)
        self.atoms.run_pass(state[1], index, tally)
        tally.items = tally.attempted - tally.failed


WORKLOADS = {w.name: w for w in (Catalog, FamilyLarge)}
