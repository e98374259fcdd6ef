"""Exhaustive verification sweeps over the builtin catalog.

Each sweep checks one family of claims on every qualifying instance and
returns a deterministic result object: per-group rows plus a flat list of
failure strings (empty on success).  Sweeps optionally fan groups out to a
process pool; merged output is independent of the worker count.
"""

from __future__ import annotations

import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, TypeVar

from .bitset import bit_indices, indices_tuple, permute_mask
from .catalog import GroupSpec, build_group, catalog_specs
from .classify import (
    Case,
    HypothesisReport,
    classify,
    hypothesis_holds,
    verify_mann,
    verify_two_coset_theorem,
)
from .digraphs import (
    DirectedGraph,
    arc_atom_cardinality_check,
    arc_connectivity,
    arc_connectivity_exhaustive,
    arc_connectivity_flow,
    bidirected_clique,
    build_quotient_graph,
    contains_k4_star,
    directed_cycle,
    every_arc_in_oriented_triangle,
    is_antisymmetric,
    is_octahedron_underlying,
    is_strongly_connected,
    oriented_octahedron,
    oriented_rook,
    verify_translation_transitivity,
)
from .errors import PreconditionError
from .family import build_example, sophie_germain_scan
from .groups import (
    IDENTITY,
    FiniteGroup,
    GroupSubset,
    closure_mask,
    double_coset_pairs,
    generated_subgroup,
)
from .sumsets import (
    _atoms_and_fragment_masks,
    _every_admissible_set,
    _left_translates,
    _overlapping_pair,
    _separability_witness,
    atom_translates,
    find_atoms,
    oracle_atoms,
    product_mask,
)

T = TypeVar("T")


def _map_specs(fn: Callable[[GroupSpec], T], specs: Sequence[GroupSpec], workers: int) -> list[T]:
    if workers <= 1 or len(specs) <= 1:
        return [fn(spec) for spec in specs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, specs))


def _canonical_class_mask(group: FiniteGroup, smask: int) -> int:
    # Least right translate S*s^-1 (s in S) as an integer; each contains 1.
    return min(permute_mask(smask, group.column(group.inverse[s])) for s in bit_indices(smask))


def _generating_subsets(group: FiniteGroup) -> Iterator[int]:
    """Masks of the generating subsets with 1 and at least 2 elements, ascending."""
    full = (1 << group.order) - 1
    for smask in range(3, 1 << group.order, 2):
        if closure_mask(group, indices_tuple(smask)) == full:
            yield smask


# ---------------------------------------------------------------------------
# Main classification sweep


@dataclass(frozen=True)
class MainTheoremRow:
    group: str
    order: int
    subsets: int
    generating: int
    hypothesis_true: int
    case_i: int
    case_ii: int
    case_iii: int
    violations: tuple[str, ...]
    unverified: tuple[str, ...]


@dataclass(frozen=True)
class SweepResult:
    suite: str
    rows: tuple
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def _main_theorem_group(spec: GroupSpec) -> MainTheoremRow:
    group = build_group(spec)
    n = group.order
    cache: dict[int, tuple[bool, Optional[int]]] = {}
    generating = hyp_true = 0
    cases = {Case.CASE_I: 0, Case.CASE_II: 0, Case.CASE_III: 0}
    violations: list[str] = []
    unverified: list[str] = []
    for smask in _generating_subsets(group):
        generating += 1
        canon = _canonical_class_mask(group, smask)
        if canon in cache:
            holds, witness_mask = cache[canon]
        else:
            report = hypothesis_holds(group, GroupSubset(group, canon))
            holds = report.holds
            witness_mask = report.witness.mask if report.witness is not None else None
            cache[canon] = (holds, witness_mask)
        if not holds:
            continue
        hyp_true += 1
        subset = GroupSubset(group, smask)
        hyp = HypothesisReport(
            holds=True,
            normalized=subset,
            translator=IDENTITY,
            generates=True,
            two_separable=True,
            witness=GroupSubset(group, witness_mask) if witness_mask is not None else None,
        )
        result = classify(group, subset, hypothesis=hyp)
        if result.case in cases:
            cases[result.case] += 1
            if not result.verified:
                unverified.append(f"{spec.name} S={subset.to_literal()}")
        else:
            violations.append(f"{spec.name} S={subset.to_literal()} -> {result.case.value}")
    return MainTheoremRow(
        group=spec.name,
        order=n,
        subsets=(1 << (n - 1)) - 1,
        generating=generating,
        hypothesis_true=hyp_true,
        case_i=cases[Case.CASE_I],
        case_ii=cases[Case.CASE_II],
        case_iii=cases[Case.CASE_III],
        violations=tuple(violations),
        unverified=tuple(unverified),
    )


def sweep_main_theorem(max_order: int, *, workers: int = 1) -> SweepResult:
    """Classify every generating subset (containing 1) of every catalog group.

    A VIOLATION outcome or a witness that fails re-verification is a failure.
    """
    specs = catalog_specs(max_order)
    rows = _map_specs(_main_theorem_group, specs, workers)
    failures = []
    for row in rows:
        failures.extend(row.violations)
        failures.extend(f"unverified witness: {s}" for s in row.unverified)
    return SweepResult("main-theorem", tuple(rows), tuple(failures))


# ---------------------------------------------------------------------------
# Oracle equivalence sweep


@dataclass(frozen=True)
class OracleRow:
    group: str
    instances: int
    mismatches: tuple[str, ...]


def _oracle_group(spec: GroupSpec) -> OracleRow:
    group = build_group(spec)
    checked = 0
    mismatches: list[str] = []
    for smask in _generating_subsets(group):
        if _separability_witness(group, smask, 2) is None:
            continue
        subset = GroupSubset(group, smask)
        fast = find_atoms(subset, 2)
        slow = oracle_atoms(subset, 2)
        checked += 1
        if not fast.same_result(slow):
            mismatches.append(f"{spec.name} S={subset.to_literal()} k=2")
    return OracleRow(spec.name, checked, tuple(mismatches))


def sweep_oracle_catalog(max_order: int = 12, *, workers: int = 1) -> SweepResult:
    """Search engine vs. exhaustive oracle on every 2-separable catalog instance."""
    specs = catalog_specs(max_order)
    rows = _map_specs(_oracle_group, specs, workers)
    failures = [m for row in rows for m in row.mismatches]
    return SweepResult("oracle-catalog", tuple(rows), tuple(failures))


def sweep_oracle_random(
    samples: int = 200, seed: int = 0, max_order: int = 12
) -> SweepResult:
    """Seeded random (G, S, k) instances, both engines compared exactly."""
    rng = random.Random(seed)
    specs = [s for s in catalog_specs(max_order) if s.order >= 4]
    if not specs:
        raise PreconditionError(
            f"random samples need a group of order at least 4; max order {max_order} has none"
        )
    groups = {s.name: build_group(s) for s in specs}
    rows = []
    mismatches: list[str] = []
    produced = 0
    while produced < samples:
        spec = specs[rng.randrange(len(specs))]
        group = groups[spec.name]
        n = group.order
        k = 1 + rng.randrange(2)
        size = 2 + rng.randrange(n - 2)
        members = [0] + rng.sample(range(1, n), size - 1)
        smask = 0
        for m in members:
            smask |= 1 << m
        if closure_mask(group, indices_tuple(smask)) != (1 << n) - 1:
            continue
        if _separability_witness(group, smask, k) is None:
            continue
        produced += 1
        subset = GroupSubset(group, smask)
        fast = find_atoms(subset, k)
        slow = oracle_atoms(subset, k)
        if not fast.same_result(slow):
            mismatches.append(f"{spec.name} S={subset.to_literal()} k={k}")
    rows.append(OracleRow("random", produced, tuple(mismatches)))
    return SweepResult("oracle-random", tuple(rows), tuple(mismatches))


# ---------------------------------------------------------------------------
# Covering (Mann-type) sweep


@dataclass(frozen=True)
class MannRow:
    group: str
    subsets: int
    hypothesis_true: int
    disagreements: tuple[str, ...]
    missing_witness: tuple[str, ...]


def _t_enumeration(group: FiniteGroup, smask: int) -> bool:
    # Exists nonempty T with |T S| <= |T| + |S| - 2 and TS != G; T may be
    # translated to contain the identity.  The oracle's plain walk visits
    # every such T with TS != G and yields |TS| - |T|.
    slack = smask.bit_count() - 2
    return any(b <= slack for _, _, b in _every_admissible_set(group, smask, 1))


def _mann_group(spec: GroupSpec) -> MannRow:
    group = build_group(spec)
    n = group.order
    agreement_cache: dict[int, bool] = {}
    subsets = hyp_true = 0
    disagreements: list[str] = []
    missing: list[str] = []
    for smask in range(1, 1 << n):
        if smask.bit_count() < 2:
            continue
        subsets += 1
        subset = GroupSubset(group, smask)
        verdict = verify_mann(group, subset)
        canon = _canonical_class_mask(group, smask)
        if canon in agreement_cache:
            brute = agreement_cache[canon]
        else:
            brute = _t_enumeration(group, canon)
            agreement_cache[canon] = brute
        if verdict.hypothesis != brute:
            disagreements.append(
                f"{spec.name} S={subset.to_literal()}: kappa-form {verdict.hypothesis}, scan {brute}"
            )
        if verdict.hypothesis:
            hyp_true += 1
            if not verdict.consistent:
                missing.append(f"{spec.name} S={subset.to_literal()}")
    return MannRow(spec.name, subsets, hyp_true, tuple(disagreements), tuple(missing))


def sweep_mann(max_order: int = 12, *, workers: int = 1) -> SweepResult:
    """Covering-hypothesis decision vs. exhaustive T-enumeration, plus the
    guaranteed subgroup witness, over every subset of every catalog group."""
    specs = catalog_specs(max_order)
    rows = _map_specs(_mann_group, specs, workers)
    failures = []
    for row in rows:
        failures.extend(f"disagreement: {d}" for d in row.disagreements)
        failures.extend(f"missing cover witness: {m}" for m in row.missing_witness)
    return SweepResult("mann", tuple(rows), tuple(failures))


# ---------------------------------------------------------------------------
# Atom intersection sweep


@dataclass(frozen=True)
class IntersectionRow:
    group: str
    pairwise_checked: int
    fragment_checked: int
    subgroup_checked: int
    failures: tuple[str, ...]


def _straddles(atom: int, fragments: set[int], k: int) -> bool:
    """Whether the atom meets some fragment in k or more points without lying inside it."""
    return any(atom & ~f and (atom & f).bit_count() >= k for f in fragments)


def _intersection_group(spec: GroupSpec) -> IntersectionRow:
    group = build_group(spec)
    n = group.order
    pairwise = frag_checked = subgroup_checked = 0
    failures: list[str] = []
    for smask in _generating_subsets(group):
        subset = GroupSubset(group, smask)
        name = f"{spec.name} S={subset.to_literal()}"
        sinv = subset.inverse_set()
        two_separable = _separability_witness(group, smask, 2) is not None
        if two_separable:
            rep, fragments = _atoms_and_fragment_masks(subset, 2)
            rep_inv = find_atoms(sinv, 2)
            if rep.atoms_truncated:
                failures.append(f"atom list truncated: {name}")
            atoms_all = atom_translates(rep, group)
            if n >= 2 * rep.alpha + rep.kappa:
                pairwise += 1
                if _overlapping_pair(atoms_all, 2) is not None:
                    failures.append(f"atom pair overlap: {name}")
            if rep.kappa != rep_inv.kappa:
                failures.append(f"kappa differs under inversion: {name}")
            if rep.alpha <= rep_inv.alpha:
                frag_checked += 1
                frag_masks = _left_translates(group, fragments)
                if any(_straddles(atom.mask, frag_masks, 2) for atom in rep.atoms):
                    failures.append(f"atom/fragment overlap: {name}")
        if _separability_witness(group, smask, 1) is not None:
            rep1, fragments1 = _atoms_and_fragment_masks(subset, 1)
            rep1_inv = find_atoms(sinv, 1)
            if rep1.alpha <= rep1_inv.alpha:
                subgroup_checked += 1
                for atom in rep1.atoms:
                    if generated_subgroup(group, atom).mask != atom.mask:
                        failures.append(f"level-1 atom not a subgroup: {name}")
            if two_separable and rep.alpha <= rep_inv.alpha:
                # level-1 atoms sit inside or entirely outside every fragment
                frag_masks = _left_translates(group, fragments1)
                for atom in rep1.atoms:
                    if _straddles(atom.mask, frag_masks, 1):
                        failures.append(f"level-1 atom straddles fragment: {name}")
    return IntersectionRow(
        spec.name, pairwise, frag_checked, subgroup_checked, tuple(failures)
    )


def sweep_intersection(max_order: int = 12, *, workers: int = 1) -> SweepResult:
    """Atom intersection, atom-fragment containment, and the subgroup
    structure of level-1 atoms, over all qualifying catalog instances."""
    specs = catalog_specs(max_order)
    rows = _map_specs(_intersection_group, specs, workers)
    failures = [f for row in rows for f in row.failures]
    return SweepResult("intersection", tuple(rows), tuple(failures))


# ---------------------------------------------------------------------------
# Graph lemmas sweep


@dataclass(frozen=True)
class GraphRow:
    name: str
    vertices: int
    checks: int
    failures: tuple[str, ...]


def _certified_quotients(max_order: int) -> list[tuple[str, DirectedGraph]]:
    out = []
    for p, q in ((7, 3), (11, 5)):
        inst = build_example(p, q)
        graph = build_quotient_graph(inst.group, inst.subgroup, inst.a)
        verdict = verify_translation_transitivity(
            graph, inst.group, inst.subgroup, inst.a
        )
        if verdict.passed:
            out.append((f"quotient-SD({p},{q})", graph))
    for spec in catalog_specs(min(max_order, 20)):
        if spec.order < 6:
            continue
        group = build_group(spec)
        last = None
        for h, picked, _ in double_coset_pairs(group):
            if len(h) > 3:
                break
            if h == last:
                continue
            last = h
            graph = build_quotient_graph(group, h, picked)
            if not is_strongly_connected(graph):
                continue
            verdict = verify_translation_transitivity(graph, group, h, picked)
            if verdict.passed:
                out.append((f"quotient-{spec.name}-H{h.to_literal().replace(' ', ',')}-a{picked}", graph))
    return out


def sweep_graph_lemmas(max_order: int = 16) -> SweepResult:
    """Cut computations and arc-atom structure on the graph test family.

    Compares the production engine on its large-graph routes with the
    exhaustive and flow engines on small graphs, checks monotonicity of the
    connectivity levels, the atom cardinality caps and degree bound on
    certified arc-transitive instances, and the degree-2 consequences
    (triangle orientation, the 4-vertex/5-arc obstruction, lambda_4 >= 4).
    """
    rows: list[GraphRow] = []
    failures: list[str] = []
    # Every graph here is arc-transitive (the quotients are certified) and
    # has at most 12 vertices (the largest quotient, of SD(11,5), has 11),
    # so the exhaustive engine is the reference on all of them.
    fixed: list[tuple[str, DirectedGraph]] = []
    fixed.extend((f"cycle{n}", directed_cycle(n)) for n in range(3, 13))
    fixed.extend((f"clique{n}", bidirected_clique(n)) for n in range(3, 7))
    fixed.append(("octahedron", oriented_octahedron()))
    fixed.append(("rook", oriented_rook()))
    fixed.extend(_certified_quotients(max_order))

    for name, graph in fixed:
        n = graph.vertex_count
        checks = 0
        row_failures: list[str] = []
        lams: dict[int, int] = {}
        for k in range(1, min(4, n // 2) + 1):
            exh = arc_connectivity_exhaustive(graph, k)
            # An exact cap below n sends production down the large-graph
            # routes (flow at k = 1, the transitive sweep beyond).
            prod = arc_connectivity(graph, k, arc_transitive=True, exact_cap=n - 1)
            checks += 1
            if prod.lam != exh.lam:
                row_failures.append(f"{name}: production lambda_{k} {prod.lam} != exhaustive {exh.lam}")
            if k <= 2 or (k == 3 and n <= 8):
                flow = arc_connectivity_flow(graph, k)
                checks += 1
                if flow != exh.lam:
                    row_failures.append(f"{name}: flow lambda_{k} {flow} != exhaustive {exh.lam}")
            lams[k] = exh.lam
            verdict = arc_atom_cardinality_check(graph, k, arc_transitive=True)
            checks += 1
            if not verdict.passed:
                bad = [c[0] for c in verdict.checks if not c[1]]
                row_failures.append(f"{name}: atom checks failed at k={k}: {bad}")
        for k in sorted(lams)[1:]:
            checks += 1
            if lams[k] < lams[k - 1]:
                row_failures.append(f"{name}: lambda not monotone at k={k}")
        anti = is_antisymmetric(graph)
        triangles = every_arc_in_oriented_triangle(graph)
        degree = {m.bit_count() for m in graph.out_masks}
        # The 4-vertex/5-arc obstruction and the lambda_4 bound belong to the
        # degree-2 analysis: in that regime such a pattern forces the
        # octahedron, and 4-separable survivors have lambda_4 >= 4.
        if degree == {2} and anti and triangles:
            k4 = contains_k4_star(graph)
            if k4 is not None:
                checks += 1
                if not is_octahedron_underlying(graph):
                    row_failures.append(
                        f"{name}: 4-vertex/5-arc pattern outside the octahedron"
                    )
        if degree == {2} and n >= 8 and anti and triangles:
            if not is_octahedron_underlying(graph):
                rep = arc_connectivity(graph, 4, arc_transitive=True)
                checks += 1
                if rep.lam < 4:
                    row_failures.append(f"{name}: degree-2 lambda_4 = {rep.lam} < 4")
        rows.append(GraphRow(name, n, checks, tuple(row_failures)))
        failures.extend(row_failures)
    return SweepResult("graph-lemmas", tuple(rows), tuple(failures))


# ---------------------------------------------------------------------------
# Family sweeps


@dataclass(frozen=True)
class TwoCosetRow:
    p: int
    q: int
    order: int
    applicable: bool
    holds: Optional[bool]
    assumed: tuple[str, ...]
    failures: tuple[str, ...]


def sweep_two_coset(limit: int = 25) -> SweepResult:
    """Two-coset complement property on every family member within the limit."""
    rows = []
    failures: list[str] = []
    for scan_row in sophie_germain_scan(limit):
        inst = build_example(scan_row.p, scan_row.q)
        verdict = verify_two_coset_theorem(inst.group, inst.subset)
        row_failures = []
        if not verdict.applicable:
            row_failures.append(
                f"SD({inst.p},{inst.q}): preconditions not established: "
                + "; ".join(p.name for p in verdict.preconditions if p.status == "failed")
            )
        elif not verdict.holds:
            bad = [e.name for e in verdict.transcript if not e.passed]
            row_failures.append(f"SD({inst.p},{inst.q}): conclusion failed: {bad}")
        hs = product_mask(inst.group, inst.subgroup.mask, inst.subset.mask)
        as_ = product_mask(inst.group, inst.pair.mask, inst.subset.mask)
        if hs != as_:
            row_failures.append(f"SD({inst.p},{inst.q}): HS != AS on the construction")
        comp = ((1 << inst.group.order) - 1) & ~hs
        if comp != inst.pair.mask:
            row_failures.append(
                f"SD({inst.p},{inst.q}): complement of HS is not the coset pair"
            )
        assumed = tuple(
            p.name for p in verdict.preconditions if p.status == "assumed"
        )
        rows.append(
            TwoCosetRow(
                p=inst.p,
                q=inst.q,
                order=inst.group.order,
                applicable=verdict.applicable,
                holds=verdict.holds,
                assumed=assumed,
                failures=tuple(row_failures),
            )
        )
        failures.extend(row_failures)
    return SweepResult("two-coset", tuple(rows), tuple(failures))
