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

import numpy as np

from .catalog import GroupSpec, build_group, catalog_specs
from .classify import (
    Case,
    classify,
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
from .errors import PreconditionError, SizeCapError
from .family import build_example, sophie_germain_scan
from .groups import (
    FiniteGroup,
    GroupSubset,
    automorphism_generators,
    double_coset_pairs,
    enumerate_subgroups,
    generated_subgroup,
)
from .sumsets import (
    _BLOCK_BITS,
    DEFAULT_ATOM_CAP,
    ORACLE_ORDER_LIMIT,
    _exhaustive_boundary_within,
    _left_translates,
    _overlapping_pair,
    _pattern_unions,
    _separability_witness,
    _walk_report,
    atom_translates,
    find_atoms,
    oracle_atoms,
    product_mask,
)

T = TypeVar("T")


def _map_specs(fn: Callable[[GroupSpec], T], specs: Sequence[GroupSpec], workers: int) -> list[T]:
    if workers <= 1 or len(specs) <= 1:
        return [fn(spec) for spec in specs]
    with ProcessPoolExecutor(max_workers=min(workers, len(specs))) as pool:
        return list(pool.map(fn, specs))


def _catalog(max_order: int) -> list[GroupSpec]:
    specs = catalog_specs(max_order)
    if not specs:
        raise PreconditionError(
            f"max order {max_order} holds no catalog group; the smallest has order 2"
        )
    return specs


def _require_mask_width(group: FiniteGroup) -> None:
    if group.order > ORACLE_ORDER_LIMIT:
        raise SizeCapError(
            f"group order {group.order} exceeds the sweeps' limit of "
            f"{ORACLE_ORDER_LIMIT} elements"
        )


def _maximal_subgroup_misses(group: FiniteGroup) -> list[int]:
    """The complements of the maximal subgroups.

    A set generates G exactly when it lies in no maximal subgroup, that is,
    when it meets every one of these complements.
    """
    proper = [h.mask for h in enumerate_subgroups(group)[:-1]]
    full = (1 << group.order) - 1
    return [full & ~h for h in proper if not any(h != m and h & m == h for m in proper)]


# ---------------------------------------------------------------------------
# The subsets a catalog sweep visits
#
# Masks are scanned in ascending order, 2^_BLOCK_BITS at a time as uint64
# arrays, so a subset costs a few numpy operations instead of a closure and
# |S| permute_mask calls, and memory stays flat at any order.


def _mask_blocks(group: FiniteGroup, generating: bool) -> Iterator[np.ndarray]:
    """The masks of the sets of at least 2 elements, ascending, in uint64 blocks.

    With ``generating``, only the sets that contain 1 and generate G.
    """
    _require_mask_width(group)
    n = group.order
    misses = [np.uint64(m) for m in _maximal_subgroup_misses(group)] if generating else []
    step = 2 if generating else 1  # sets containing 1 have odd masks
    width = min(step << _BLOCK_BITS, 1 << n)
    offsets = np.arange(step - 1, width, step, dtype=np.uint64)
    for base in range(0, 1 << n, width):
        masks = offsets + np.uint64(base)
        keep = np.bitwise_count(masks) >= 2
        for miss in misses:
            keep &= (masks & miss) != 0
        yield masks[keep]


def _generating_masks(group: FiniteGroup) -> Iterator[int]:
    """Masks of the generating subsets with 1 and at least 2 elements, ascending."""
    for masks in _mask_blocks(group, True):
        yield from masks.tolist()


def _byte_images(perms: np.ndarray) -> np.ndarray:
    """``images[p, j, b]`` is the mask of the image under the permutation
    ``perms[p]`` of the set whose mask is b << 8j."""
    count, n = perms.shape
    nbytes = -(-n // 8)
    bits = np.zeros((count, 8 * nbytes), dtype=np.uint64)
    bits[:, :n] = np.uint64(1) << perms.astype(np.uint64)
    return _pattern_unions(bits.reshape(count, nbytes, 8))


def _image(images: np.ndarray, slices: list[np.ndarray]) -> np.ndarray:
    """The images of a block under one permutation, one gather per byte."""
    out = images[0, slices[0]]
    for j in range(1, len(slices)):
        out |= images[j, slices[j]]
    return out


def _byte_slices(masks: np.ndarray, nbytes: int) -> list[np.ndarray]:
    return [(masks >> np.uint64(8 * j) & np.uint64(0xFF)).astype(np.intp) for j in range(nbytes)]


def _translate_images(group: FiniteGroup) -> np.ndarray:
    """The byte images of x -> x*s^-1, for each s."""
    _require_mask_width(group)
    return _byte_images(np.asarray(group.table)[:, group.inverse].T)


def _class_keys(translates: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Each mask's class key, the least right translate S*s^-1 over s in S,
    which contains 1; ``translates`` is :func:`_translate_images`."""
    slices = _byte_slices(masks, translates.shape[1])
    least = np.full_like(masks, np.iinfo(np.uint64).max)
    for s in range(len(translates)):
        held = (masks >> np.uint64(s) & np.uint64(1)).astype(bool)
        np.minimum(least, _image(translates[s], slices), out=least, where=held)
    return least


def _subset_orbits(group: FiniteGroup, generating: bool) -> Iterator[tuple[int, int]]:
    """Each mask of :func:`_mask_blocks`, ascending, with its orbit key: the
    least class key in its orbit under S -> phi(g S h), g, h in G and phi
    in Aut(G).

    A class (the right translates of a set) goes under phi to a class, and
    gS = (g S g^-1) g lies in the class of an inner image; so the orbits are
    the classes joined along c -> key(phi(c)) for the generators of
    :func:`automorphism_generators`.  Both kinds of blocks are closed under
    these maps, and each generator permutes their classes.  The joins are
    a union-find over the class keys: every class takes the least of its
    label, its image's label and its label's label, until none changes.
    As the images run through whole cycles, the label is then the least
    index, so the least key, of its orbit.  Memory holds the class keys and
    one block, so two passes are made over the blocks.
    """
    translates = _translate_images(group)
    classes = np.unique(
        np.concatenate(
            [np.unique(_class_keys(translates, m)) for m in _mask_blocks(group, generating)]
        )
    )
    slices = _byte_slices(classes, translates.shape[1])
    perms = np.array(automorphism_generators(group), dtype=np.intp).reshape(-1, group.order)
    moves = []
    for images in _byte_images(perms):
        moved = _class_keys(translates, _image(images, slices))
        target = np.minimum(np.searchsorted(classes, moved), len(classes) - 1)
        if not np.array_equal(classes[target], moved):
            raise RuntimeError(f"{group.name}: an automorphism left the enumerated classes")
        moves.append(target)
    label = np.arange(len(classes))
    while True:
        before = label
        for target in moves:
            label = np.minimum(label, label[target])
        label = label[label]
        if np.array_equal(label, before):
            break
    orbit_keys = classes[label]
    for masks in _mask_blocks(group, generating):
        keys = orbit_keys[np.searchsorted(classes, _class_keys(translates, masks))]
        yield from zip(masks.tolist(), keys.tolist())


def _orbit_outcomes(
    group: FiniteGroup, generating: bool, decide: Callable[[GroupSubset], T]
) -> Iterator[tuple[int, T]]:
    """Each mask of :func:`_subset_orbits`, ascending, with ``decide`` of its
    orbit key, called once per key; sweeps count it for every member.

    The key's outcome holds for every member by elementary facts, not by
    the theorems under test.  For S' = phi(gSh), X -> phi(X g^-1) keeps |X|
    and maps XS to phi(XSh), so it carries boundary witnesses (a left
    translate of one is one, so it may contain 1), fragments and atoms of S
    to those of S' of the same sizes, and as many atoms contain 1 (they are
    closed under left translation).  Generation passes on, and S'^-1 lies
    in the orbit of S^-1.  ``decide`` returns plain values: a cached set
    would keep its translate masks alive for every orbit.
    """
    outcomes: dict[int, T] = {}
    for smask, key in _subset_orbits(group, generating):
        if key not in outcomes:
            outcomes[key] = decide(GroupSubset(group, key))
        yield smask, outcomes[key]


def _member(spec: GroupSpec, group: FiniteGroup, smask: int) -> str:
    return f"{spec.name} S={GroupSubset(group, smask).to_literal()}"


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
    """The main-theorem row of one group, classified once per orbit
    (:func:`_orbit_outcomes`).  Progressions map to progressions: if kS is
    one, so are (k g^-1)(gS) = kS, (h^-1 k)(Sh) = h^-1 (kS) h and
    phi(k)phi(S); a subgroup cover H, a double-coset pair H u Ha and the
    S^-1 side map to conjugates or images of the same sizes.
    """
    group = build_group(spec)
    n = group.order

    def decide(s: GroupSubset) -> tuple[Case, bool]:
        result = classify(group, s)
        return result.case, result.verified

    generating = 0
    cases = {Case.CASE_I: 0, Case.CASE_II: 0, Case.CASE_III: 0}
    violations: list[str] = []
    unverified: list[str] = []
    for smask, (case, verified) in _orbit_outcomes(group, True, decide):
        generating += 1
        if case in cases:
            cases[case] += 1
            if not verified:
                unverified.append(_member(spec, group, smask))
        elif case is not Case.HYPOTHESIS_FAILS:
            violations.append(f"{_member(spec, group, smask)} -> {case.value}")
    return MainTheoremRow(
        group=spec.name,
        order=n,
        subsets=(1 << (n - 1)) - 1,
        generating=generating,
        hypothesis_true=sum(cases.values()) + len(violations),
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
    specs = _catalog(max_order)
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
    for smask in _generating_masks(group):
        subset = GroupSubset(group, smask)
        if _separability_witness(subset, 2) is None:
            continue
        fast = find_atoms(subset, 2)
        slow = oracle_atoms(subset, 2)
        checked += 1
        if not fast.same_result(slow):
            mismatches.append(f"{spec.name} S={subset.to_literal()} k=2")
    return OracleRow(spec.name, checked, tuple(mismatches))


def sweep_oracle_catalog(max_order: int = 12, *, workers: int = 1) -> SweepResult:
    """Search engine vs. exhaustive oracle on every 2-separable catalog instance."""
    specs = _catalog(max_order)
    rows = _map_specs(_oracle_group, specs, workers)
    failures = [m for row in rows for m in row.mismatches]
    return SweepResult("oracle-catalog", tuple(rows), tuple(failures))


def sweep_oracle_random(
    samples: int = 200, seed: int = 0, max_order: int = 12
) -> SweepResult:
    """Seeded random (G, S, k) instances, both engines compared exactly."""
    if samples < 1:
        raise PreconditionError(f"samples must be positive, got {samples}")
    rng = random.Random(seed)
    specs = [s for s in catalog_specs(max_order) if s.order >= 4]
    if not specs:
        raise PreconditionError(
            f"random samples need a group of order at least 4; max order {max_order} has none"
        )
    groups = {s.name: build_group(s) for s in specs}
    misses = {name: _maximal_subgroup_misses(g) for name, g in groups.items()}
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
        if not all(smask & miss for miss in misses[spec.name]):
            continue
        subset = GroupSubset(group, smask)
        if _separability_witness(subset, k) is None:
            continue
        produced += 1
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
    # translated to contain the identity.  The oracle's scan visits every
    # such T with TS != G, whose boundary is |TS| - |T|.
    s = GroupSubset(group, smask)
    return _exhaustive_boundary_within(s, 1, len(s) - 2)


def _mann_group(spec: GroupSpec) -> MannRow:
    """The Mann row of one group, decided once per orbit
    (:func:`_orbit_outcomes`).  A subgroup H that covers S maps to a
    conjugate or image of the same size that covers S'.
    """
    group = build_group(spec)

    def decide(s: GroupSubset) -> tuple[bool, bool, bool]:
        verdict = verify_mann(group, s)
        return verdict.hypothesis, verdict.consistent, _t_enumeration(group, s.mask)

    subsets = hyp_true = 0
    disagreements: list[str] = []
    missing: list[str] = []
    for smask, (hypothesis, consistent, brute) in _orbit_outcomes(group, False, decide):
        subsets += 1
        hyp_true += hypothesis
        if hypothesis != brute:
            disagreements.append(
                f"{_member(spec, group, smask)}: kappa-form {hypothesis}, scan {brute}"
            )
        if hypothesis and not consistent:
            missing.append(_member(spec, group, smask))
    return MannRow(spec.name, subsets, hyp_true, tuple(disagreements), tuple(missing))


def sweep_mann(max_order: int = 12, *, workers: int = 1) -> SweepResult:
    """Covering-hypothesis decision vs. exhaustive T-enumeration, plus the
    guaranteed subgroup witness, over every subset of every catalog group."""
    specs = _catalog(max_order)
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


def _intersection_checks(subset: GroupSubset) -> tuple[int, int, int, tuple[str, ...]]:
    """The pairwise, fragment and subgroup checks made on one set, and its failure kinds."""
    group = subset.group
    pairwise = frag_checked = subgroup_checked = 0
    kinds: list[str] = []
    sinv = subset.inverse_set()
    two_separable = _separability_witness(subset, 2) is not None
    if two_separable:
        rep, tally = _walk_report(subset, 2, DEFAULT_ATOM_CAP)
        rep_inv = find_atoms(sinv, 2)
        if rep.atoms_truncated:
            kinds.append("atom list truncated")
        if group.order >= 2 * rep.alpha + rep.kappa:
            pairwise += 1
            if _overlapping_pair(atom_translates(rep, group), 2) is not None:
                kinds.append("atom pair overlap")
        if rep.kappa != rep_inv.kappa:
            kinds.append("kappa differs under inversion")
        if rep.alpha <= rep_inv.alpha:
            frag_checked += 1
            frag_masks = _left_translates(group, tally.fragment_masks())
            if any(_straddles(atom.mask, frag_masks, 2) for atom in rep.atoms):
                kinds.append("atom/fragment overlap")
    if _separability_witness(subset, 1) is not None:
        rep1, tally1 = _walk_report(subset, 1, DEFAULT_ATOM_CAP)
        rep1_inv = find_atoms(sinv, 1)
        if rep1.alpha <= rep1_inv.alpha:
            subgroup_checked += 1
            for atom in rep1.atoms:
                if generated_subgroup(group, atom).mask != atom.mask:
                    kinds.append("level-1 atom not a subgroup")
        if two_separable and rep.alpha <= rep_inv.alpha:
            # level-1 atoms sit inside or entirely outside every fragment
            frag_masks = _left_translates(group, tally1.fragment_masks())
            for atom in rep1.atoms:
                if _straddles(atom.mask, frag_masks, 1):
                    kinds.append("level-1 atom straddles fragment")
    return pairwise, frag_checked, subgroup_checked, tuple(kinds)


def _intersection_group(spec: GroupSpec) -> IntersectionRow:
    """The intersection row of one group, checked once per orbit
    (:func:`_orbit_outcomes`).  The level-1 atom A of S containing 1 maps to
    phi(g A g^-1), that of S', so level-1 atoms map to conjugate subgroups.
    """
    group = build_group(spec)
    counts = [0, 0, 0]  # pairwise, fragment and subgroup checks
    failures: list[str] = []
    for smask, (*checked, kinds) in _orbit_outcomes(group, True, _intersection_checks):
        counts = [total + c for total, c in zip(counts, checked)]
        failures.extend(f"{kind}: {_member(spec, group, smask)}" for kind in kinds)
    return IntersectionRow(spec.name, *counts, tuple(failures))


def sweep_intersection(max_order: int = 12, *, workers: int = 1) -> SweepResult:
    """Atom intersection, atom-fragment containment, and the subgroup
    structure of level-1 atoms, over all qualifying catalog instances."""
    specs = _catalog(max_order)
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
    scan = sophie_germain_scan(limit)
    if not scan:
        raise PreconditionError(f"no family member has p at most {limit}; the first has p = 7")
    rows = []
    failures: list[str] = []
    for scan_row in scan:
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
