"""Coset quotient digraphs and arc connectivity.

Left multiplication by a union of two cosets H and Ha induces a digraph on
the right cosets of H: there is an arc Hx -> Hy exactly when HaHx covers Hy.
This module builds that graph, certifies its translation symmetries, and
computes arc connectivity with three engines that cross-check each other:
augmenting-path flows, plain cut enumeration, and a size-bounded sweep that
is exact on arc-transitive graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from math import comb
from typing import Iterable, Iterator, Optional

import numpy as np

from .bitset import bit_indices, indices_tuple, mask_from_indices, permute_mask
from .errors import (
    DisconnectedGraphError,
    EngineMismatchError,
    GraphTooLargeError,
    PreconditionError,
)
from .groups import (
    FiniteGroup,
    GroupSubset,
    _light_generators,
    _require_subgroup,
    double_coset_mask,
    right_coset_mask,
)

DEFAULT_EXACT_CUT_CAP = 16
EXHAUSTIVE_CUT_CAP = 22
FLOW_WORK_CAP = 200_000
CUT_ATOM_CAP = 256
SWEEP_CHUNK_ROWS = 1 << 16


@dataclass(frozen=True)
class DirectedGraph:
    """A simple digraph on vertices 0..n-1, adjacency stored as bitmasks."""

    out_masks: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.out_masks)
        for u, m in enumerate(self.out_masks):
            if not 0 <= m < (1 << n):
                raise PreconditionError(f"adjacency mask of vertex {u} out of range")
            if m >> u & 1:
                raise PreconditionError(f"self-loop at vertex {u}")

    @property
    def vertex_count(self) -> int:
        return len(self.out_masks)

    @property
    def arc_count(self) -> int:
        return sum(m.bit_count() for m in self.out_masks)

    def arcs(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.vertex_count) for v in bit_indices(self.out_masks[u])]

    def in_masks(self) -> tuple[int, ...]:
        n = self.vertex_count
        ins = [0] * n
        for u, m in enumerate(self.out_masks):
            for v in bit_indices(m):
                ins[v] |= 1 << u
        return tuple(ins)

    @cached_property
    def lambda1_flows(self) -> tuple[int, tuple[int, ...]]:
        """(lambda_1, the cut sides found) from :func:`_flow_lambda1`.

        Its 2(n - 1) max flows run once per graph object; like a set's
        translate masks, the result is not a field.
        """
        return _flow_lambda1(self)


def graph_from_arcs(n: int, arcs: Iterable[tuple[int, int]]) -> DirectedGraph:
    masks = [0] * n
    for u, v in arcs:
        if u == v:
            raise PreconditionError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise PreconditionError(f"arc ({u},{v}) out of range")
        masks[u] |= 1 << v
    return DirectedGraph(tuple(masks))


def directed_cycle(n: int) -> DirectedGraph:
    return graph_from_arcs(n, [(i, (i + 1) % n) for i in range(n)])


def bidirected_clique(n: int) -> DirectedGraph:
    return graph_from_arcs(
        n, [(u, v) for u in range(n) for v in range(n) if u != v]
    )


def oriented_octahedron() -> DirectedGraph:
    """The 6-vertex antisymmetric orientation with every arc in a directed triangle.

    Underlying graph is the complete tripartite K_{2,2,2}; antipodal pairs
    are (0,5), (1,4), (2,3).
    """
    arcs = [
        (2, 1), (1, 0), (0, 2),
        (0, 3), (3, 1),
        (4, 0), (1, 5),
        (2, 4), (3, 4),
        (5, 2), (5, 3),
        (4, 5),
    ]
    return graph_from_arcs(6, arcs)


def oriented_rook() -> DirectedGraph:
    """Both triangle classes of the 3x3 rook graph oriented cyclically.

    The Cayley digraph of Z3 x Z3 on {(0,1),(1,0)}: antisymmetric,
    out-degree 2, every arc in a directed triangle, arc-transitive
    (translations plus the transpose swap the two arc classes).
    """
    arcs = []
    for i in range(3):
        for j in range(3):
            arcs.append((3 * i + j, 3 * i + (j + 1) % 3))
            arcs.append((3 * i + j, 3 * ((i + 1) % 3) + j))
    return graph_from_arcs(9, arcs)


def format_graph_dump(graph: DirectedGraph) -> str:
    """Line-oriented dump: "n m" then one "u v" line per arc, sorted."""
    arcs = sorted(graph.arcs())
    lines = [f"{graph.vertex_count} {len(arcs)}"]
    lines.extend(f"{u} {v}" for u, v in arcs)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Quotient construction


def coset_vertices(group: FiniteGroup, hmask: int) -> tuple[list[int], list[int]]:
    """Right-coset representatives (smallest element) and the element->vertex map."""
    n = group.order
    coset_of = [-1] * n
    reps: list[int] = []
    for x in range(n):
        if coset_of[x] < 0:
            idx = len(reps)
            reps.append(x)
            for y in bit_indices(right_coset_mask(group, hmask, x)):
                coset_of[y] = idx
    return reps, coset_of


def build_quotient_graph(
    group: FiniteGroup, subgroup: GroupSubset, a: int
) -> DirectedGraph:
    """The digraph on right cosets Hx with an arc Hx -> Hy when HaHx covers Hy."""
    _require_subgroup(group, subgroup)
    if not 0 <= a < group.order:
        raise PreconditionError(f"element {a} out of range")
    if a in subgroup:
        raise PreconditionError("a lies in H; the quotient would have self-loops")
    hmask = subgroup.mask
    reps, coset_of = coset_vertices(group, hmask)
    dc = double_coset_mask(group, hmask, a)
    out = []
    for rep in reps:
        image = permute_mask(dc, group.column(rep))
        mask = 0
        for y in bit_indices(image):
            mask |= 1 << coset_of[y]
        out.append(mask)
    return DirectedGraph(tuple(out))


@dataclass(frozen=True)
class TransitivityVerdict:
    """Certificate that coset translations act as graph symmetries."""

    regular: bool
    degree: Optional[int]
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def _vertex_translation(
    group: FiniteGroup, reps: list[int], coset_of: list[int], z: int
) -> list[int]:
    # Image of vertex Hx under right multiplication by z is the vertex of Hxz.
    table = group.table
    return [coset_of[table[rep][z]] for rep in reps]


def verify_translation_transitivity(
    graph: DirectedGraph, group: FiniteGroup, subgroup: GroupSubset, a: int
) -> TransitivityVerdict:
    """Check the translation symmetries of a quotient graph.

    Right multiplication by any group element must permute the vertices and
    preserve arcs, the family must act transitively on vertices, and the
    translations fixing the base coset (those by elements of H) must act
    transitively on its out-neighbors.  Left multiplication by elements of H
    fixes every right coset, so the stabilizer action is realized by the
    right translations.

    Only the translations by a set Γ of ``_light_generators`` are checked.
    Since H is a subgroup, z -> (Hx -> Hxz) is a right action: translating
    by yz is translating by y, then by z.  Every element is a product of
    elements of Γ, so arc-preserving bijections for Γ compose into ones for
    all of G, and the orbit of the base coset under Γ is its orbit under G.
    """
    _require_subgroup(group, subgroup)
    failures: list[str] = []
    reps, coset_of = coset_vertices(group, subgroup.mask)
    n = graph.vertex_count
    if len(reps) != n:
        raise PreconditionError("graph does not match the coset structure")
    out = graph.out_masks
    perms = []
    for z in _light_generators(group.order, group.column):
        perm = _vertex_translation(group, reps, coset_of, z)
        # permute_mask maps dense masks through their complements, which is
        # only sound for a bijection: this check must come first.
        if len(set(perm)) != n:
            failures.append(f"translation by {z} is not a vertex bijection")
            continue
        perms.append(perm)
        for u in range(n):
            if permute_mask(out[u], perm) != out[perm[u]]:
                failures.append(f"translation by {z} breaks arcs at vertex {u}")
                break
    orbit_of_base = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for perm in perms:
            if perm[u] not in orbit_of_base:
                orbit_of_base.add(perm[u])
                stack.append(perm[u])
    if len(orbit_of_base) != n:
        failures.append("translations do not act transitively on vertices")
    neighbors = list(bit_indices(out[0]))
    reached = set()
    for z in subgroup:
        perm = _vertex_translation(group, reps, coset_of, z)
        if perm[0] != 0:
            failures.append(f"translation by subgroup element {z} moves the base coset")
            continue
        if neighbors:
            reached.add(perm[neighbors[0]])
    if not set(neighbors) <= reached:
        failures.append("subgroup translations not transitive on base out-neighbors")
    degrees = {m.bit_count() for m in out}
    in_degrees = {m.bit_count() for m in graph.in_masks()}
    regular = len(degrees) == 1 and in_degrees == degrees
    if not regular:
        failures.append("graph is not regular with equal in- and out-degrees")
    return TransitivityVerdict(
        regular=regular,
        degree=degrees.pop() if len(degrees) == 1 else None,
        failures=tuple(failures),
    )


# ---------------------------------------------------------------------------
# Cuts and arc connectivity


def _outgoing(out_masks: tuple[int, ...], cmask: int) -> int:
    total = 0
    m = cmask
    while m:
        low = m & -m
        m ^= low
        total += (out_masks[low.bit_length() - 1] & ~cmask).bit_count()
    return total


def _reachable(masks: tuple[int, ...], start: int) -> int:
    seen = 1 << start
    queue = [start]
    while queue:
        u = queue.pop()
        new = masks[u] & ~seen
        seen |= new
        for v in bit_indices(new):
            queue.append(v)
    return seen


def is_strongly_connected(graph: DirectedGraph) -> bool:
    n = graph.vertex_count
    full = (1 << n) - 1
    if n == 0:
        return False
    return (
        _reachable(graph.out_masks, 0) == full
        and _reachable(graph.in_masks(), 0) == full
    )


def _require_k_separable(graph: DirectedGraph, k: int) -> None:
    if k < 1:
        raise PreconditionError(f"k must be positive, got {k}")
    if graph.vertex_count < 2 * k:
        raise PreconditionError(f"graph is not {k}-separable")
    if not is_strongly_connected(graph):
        raise DisconnectedGraphError("graph is not strongly connected")


@dataclass(frozen=True)
class ArcCutReport:
    """Arc connectivity at level k, with the minimum cuts of least size."""

    k: int
    lam: int
    atoms: tuple[tuple[int, ...], ...]
    separable: bool
    atoms_complete: bool
    method: str


def _max_flow(out_masks: tuple[int, ...], sources: int, sinks: int) -> tuple[int, int]:
    """Unit-capacity max flow from the vertex set ``sources`` to ``sinks``.

    Returns (value, reach), reach being the vertices reachable from the
    sources in the final residual graph: the least minimum cut, the same for
    every maximum flow.
    """
    n = len(out_masks)
    used = [0] * n  # used[u]: the v with a unit on u -> v
    back = [0] * n  # back[v]: the u with a unit on u -> v
    value = 0
    while True:
        parent = [-1] * n
        seen = frontier = sources
        hit = 0
        while frontier and not hit:
            reached = 0
            for u in bit_indices(frontier):
                new = ((out_masks[u] & ~used[u]) | back[u]) & ~seen
                if new:
                    seen |= new
                    reached |= new
                    for v in bit_indices(new):
                        parent[v] = u
                    hit = new & sinks
                    if hit:
                        break
            frontier = reached
        if not hit:
            return value, seen
        v = (hit & -hit).bit_length() - 1
        while not sources >> v & 1:
            u = parent[v]
            if back[u] >> v & 1:  # cancel the unit on v -> u
                back[u] ^= 1 << v
                used[v] ^= 1 << u
            else:
                used[u] |= 1 << v
                back[v] |= 1 << u
            v = u
        value += 1


def _flow_lambda1(graph: DirectedGraph) -> tuple[int, tuple[int, ...]]:
    """Global minimum arc cut by flows pinned at vertex 0, plus cut sides found."""
    n = graph.vertex_count
    best = None
    sides: list[int] = []
    for t in range(1, n):
        for s, sink in ((0, t), (t, 0)):
            value, side = _max_flow(graph.out_masks, 1 << s, 1 << sink)
            if best is None or value < best:
                best = value
                sides = [side]
            elif value == best and side not in sides:
                sides.append(side)
    return best, tuple(sides)


def arc_connectivity_flow(graph: DirectedGraph, k: int) -> int:
    """Exact k-arc-connectivity via flows with pinned k-element terminals.

    Every admissible cut C contains some k of its vertices and misses some k
    others, so taking the minimum flow value from each source k-set to each
    disjoint sink k-set is exact.  Cost grows as C(n,k)^2; guarded by
    ``FLOW_WORK_CAP``.
    """
    n = graph.vertex_count
    _require_k_separable(graph, k)
    if k == 1:
        return graph.lambda1_flows[0]
    pairs = comb(n, k) * comb(n - k, k)
    if pairs > FLOW_WORK_CAP:
        raise GraphTooLargeError(
            f"pinned-terminal flow needs {pairs} flow runs, cap {FLOW_WORK_CAP}"
        )
    verts = range(n)
    return min(
        _max_flow(graph.out_masks, mask_from_indices(sources), mask_from_indices(sinks))[0]
        for sources in combinations(verts, k)
        for sinks in combinations([v for v in verts if v not in sources], k)
    )


def _least_cuts(
    graph: DirectedGraph, k: int, cuts: Iterable[int], method: str
) -> ArcCutReport:
    """Tally cuts by fewest outgoing arcs, then fewest vertices.

    Atoms are kept in visit order up to ``CUT_ATOM_CAP``, so a truncated
    list depends on the order of ``cuts``.
    """
    out = graph.out_masks
    lam = None
    alpha = None
    atoms: list[int] = []
    count = 0
    for cmask in cuts:
        e = _outgoing(out, cmask)
        size = cmask.bit_count()
        if lam is None or e < lam or (e == lam and size < alpha):
            lam, alpha, atoms, count = e, size, [cmask], 1
        elif e == lam and size == alpha:
            count += 1
            if len(atoms) < CUT_ATOM_CAP:
                atoms.append(cmask)
    return ArcCutReport(
        k=k,
        lam=lam,
        atoms=tuple(sorted(indices_tuple(m) for m in atoms)),
        separable=True,
        atoms_complete=count == len(atoms),
        method=method,
    )


def arc_connectivity_exhaustive(graph: DirectedGraph, k: int) -> ArcCutReport:
    """Plain scan of every vertex subset with k <= |C| <= n-k, in mask order."""
    n = graph.vertex_count
    if n > EXHAUSTIVE_CUT_CAP:
        raise GraphTooLargeError(
            f"{n} vertices exceeds exhaustive cap {EXHAUSTIVE_CUT_CAP}"
        )
    _require_k_separable(graph, k)
    cuts = (c for c in range(1, 1 << n) if k <= c.bit_count() <= n - k)
    return _least_cuts(graph, k, cuts, "exhaustive")


def _adjacency(graph: DirectedGraph) -> np.ndarray:
    """The n x n int8 adjacency matrix: entry (u, v) is 1 for an arc u -> v."""
    n = graph.vertex_count
    return np.array([[m >> v & 1 for v in range(n)] for m in graph.out_masks], dtype=np.int8)


def _subset_values(
    weights: np.ndarray, pair_weights: np.ndarray, size: int
) -> Iterator[tuple[tuple[int, ...], np.ndarray, np.ndarray]]:
    """Every ``size``-subset C of the vertices, in lexicographic order, with its value.

    The value of C is the sum of ``weights[v]`` over v in C plus the sum of
    ``pair_weights[u, v]`` over pairs u < v in C (``pair_weights`` is
    symmetric).  Yields ``(prefix, rows, values)``: C is ``prefix`` followed by
    a row of ``rows``.  The prefix is fixed just long enough that the rows of
    one chunk never exceed ``SWEEP_CHUNK_ROWS``, so no array grows with
    C(n, size).  The pair sums of the rows are computed once per size; each
    prefix only adds its weights to the rows' vertices.
    """
    n = len(weights)
    fixed = 0
    while fixed < size - 1 and comb(n - fixed, size - fixed) > SWEEP_CHUNK_ROWS:
        fixed += 1
    width = size - fixed
    # All width-subsets of fixed..n-1; those after a prefix ending at p are
    # the rows from starts[p + 1] on, since rows are sorted by first vertex.
    flat = chain.from_iterable(combinations(range(fixed, n), width))
    rows = np.fromiter(flat, dtype=np.intp, count=comb(n - fixed, width) * width)
    rows = rows.reshape(-1, width)
    inner = np.zeros(len(rows), dtype=np.int64)
    for i, j in combinations(range(width), 2):
        inner += pair_weights[rows[:, i], rows[:, j]]
    starts = np.searchsorted(rows[:, 0], np.arange(n + 1))
    for prefix in combinations(range(n - width), fixed):
        base = int(weights[list(prefix)].sum()) + sum(
            int(pair_weights[u, v]) for u, v in combinations(prefix, 2)
        )
        shifted = weights + pair_weights[list(prefix)].sum(axis=0, dtype=np.int64)
        start = starts[prefix[-1] + 1] if prefix else 0
        chunk = rows[start:]
        yield prefix, chunk, inner[start:] + shifted[chunk].sum(axis=1) + base


def _transitive_sweep(graph: DirectedGraph, k: int) -> ArcCutReport:
    """``_least_cuts`` over the cuts of k to max(k, 2k-2) vertices, in chunks.

    Exact on connected arc-transitive graphs: arc k-atoms have at most
    max(k, 2k-2) vertices there, so sweeping the small sizes finds lambda.
    The cuts come by size, then in lexicographic order, and the tally keeps
    ``_least_cuts``' rule: least e(C) (the sum of out-degrees over C minus
    the arcs inside C), then least size, then the first ``CUT_ATOM_CAP``
    atoms in visit order.
    """
    n = graph.vertex_count
    adjacency = _adjacency(graph)
    out_degrees = adjacency.sum(axis=1, dtype=np.int64)
    inside = -(adjacency + adjacency.T)
    lam = alpha = None
    atoms: list[tuple[int, ...]] = []
    count = 0
    for size in range(k, min(max(k, 2 * k - 2), n - k) + 1):
        for prefix, rows, values in _subset_values(out_degrees, inside, size):
            low = int(values.min())
            if lam is not None and (low > lam or (low == lam and size > alpha)):
                continue
            if lam is None or low < lam:
                lam, alpha, atoms, count = low, size, [], 0
            hits = np.flatnonzero(values == low)
            count += len(hits)
            for i in hits[: CUT_ATOM_CAP - len(atoms)]:
                atoms.append(prefix + tuple(rows[i].tolist()))
    return ArcCutReport(
        k=k,
        lam=lam,
        atoms=tuple(sorted(atoms)),
        separable=True,
        atoms_complete=count == len(atoms),
        method="transitive-sweep",
    )


def arc_connectivity(
    graph: DirectedGraph,
    k: int,
    *,
    arc_transitive: bool = False,
    exact_cap: int = DEFAULT_EXACT_CUT_CAP,
) -> ArcCutReport:
    """Exact lambda_k with all minimum cuts of least cardinality.

    k = 1 uses pinned flows (any size); larger k uses full enumeration up to
    ``exact_cap`` vertices and, beyond that, the size-bounded sweep that is
    exact for arc-transitive graphs (caller asserts transitivity).
    """
    n = graph.vertex_count
    _require_k_separable(graph, k)
    if k == 1:
        lam, sides = graph.lambda1_flows
        if n <= exact_cap:
            enum = arc_connectivity_exhaustive(graph, 1)
            if enum.lam != lam:
                raise EngineMismatchError(
                    f"flow/enumeration disagree on lambda_1: {lam} vs {enum.lam}"
                )
            return ArcCutReport(
                k=1,
                lam=lam,
                atoms=enum.atoms,
                separable=True,
                atoms_complete=enum.atoms_complete,
                method="flow+enumeration",
            )
        # Each side is a residual-reachable set of a flow of value lam, so
        # exactly lam arcs leave it: every side is a minimum cut.
        smallest = min(m.bit_count() for m in sides)
        atoms = sorted({indices_tuple(m) for m in sides if m.bit_count() == smallest})
        return ArcCutReport(
            k=1,
            lam=lam,
            atoms=tuple(atoms),
            separable=True,
            atoms_complete=False,
            method="flow",
        )
    if n <= exact_cap:
        return arc_connectivity_exhaustive(graph, k)
    if arc_transitive:
        return _transitive_sweep(graph, k)
    raise GraphTooLargeError(
        f"exact cuts need <= {exact_cap} vertices unless arc-transitivity is asserted"
    )


# ---------------------------------------------------------------------------
# Structure detectors


def is_antisymmetric(graph: DirectedGraph) -> bool:
    """No pair of opposite arcs."""
    out = graph.out_masks
    for u in range(graph.vertex_count):
        for v in bit_indices(out[u]):
            if out[v] >> u & 1:
                return False
    return True


def every_arc_in_oriented_triangle(graph: DirectedGraph) -> bool:
    """Each arc (u,v) extends to a directed triangle u -> v -> w -> u."""
    out = graph.out_masks
    ins = graph.in_masks()
    for u in range(graph.vertex_count):
        for v in bit_indices(out[u]):
            if not out[v] & ins[u]:
                return False
    return True


def contains_k4_star(graph: DirectedGraph) -> Optional[tuple[int, int, int, int]]:
    """A 4-vertex set inducing at least 5 arcs with no opposite pair, if any."""
    n = graph.vertex_count
    out = graph.out_masks
    for combo in combinations(range(n), 4):
        cmask = mask_from_indices(combo)
        ok = True
        arcs = 0
        for u in combo:
            for v in combo:
                if u < v and out[u] >> v & 1 and out[v] >> u & 1:
                    ok = False
                    break
            if not ok:
                break
            arcs += (out[u] & cmask).bit_count()
        if ok and arcs >= 5:
            return combo
    return None


def is_octahedron_underlying(graph: DirectedGraph) -> bool:
    """Whether the underlying simple graph is the complete tripartite K_{2,2,2}."""
    n = graph.vertex_count
    if n != 6:
        return False
    ins = graph.in_masks()
    und = [graph.out_masks[u] | ins[u] for u in range(n)]
    non_neighbors = []
    for u in range(n):
        if und[u].bit_count() != 4:
            return False
        missing = [v for v in range(n) if v != u and not und[u] >> v & 1]
        if len(missing) != 1:
            return False
        non_neighbors.append(missing[0])
    return all(non_neighbors[non_neighbors[u]] == u != non_neighbors[u] for u in range(n))


def max_induced_arcs(graph: DirectedGraph, k: int) -> int:
    """Largest arc count induced by any k vertices (exhaustive; meant for k <= 4)."""
    n = graph.vertex_count
    if not 0 <= k <= n:
        raise PreconditionError(f"k={k} outside 0..{n}, the vertex count")
    if k < 2:
        return 0
    adjacency = _adjacency(graph)
    return max(
        int(values.max())
        for _, _, values in _subset_values(
            np.zeros(n, dtype=np.int64), adjacency + adjacency.T, k
        )
    )


@dataclass(frozen=True)
class ArcAtomVerdict:
    """Size and bound checks for arc k-atoms of a regular arc-transitive graph."""

    k: int
    degree: int
    antisymmetric: bool
    lam: int
    atom_sizes: tuple[int, ...]
    checks: tuple[tuple[str, bool, int, int], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _, _ in self.checks)


def arc_atom_cardinality_check(
    graph: DirectedGraph,
    k: int,
    *,
    arc_transitive: bool = True,
) -> ArcAtomVerdict:
    """Check the cardinality caps and the degree bound for arc k-atoms.

    The caller certifies (or asserts) arc-transitivity; the graph must be
    regular with equal in- and out-degrees.  Checks: atoms have at most
    max(k, 2k-2) vertices; exactly k when 3(k-1) <= d, or when the graph is
    antisymmetric and 3(k-1) <= 2d; and in those regimes
    lambda_k >= d*k - e_k with e_k the maximum induced arc count.
    """
    degrees = {m.bit_count() for m in graph.out_masks}
    in_degrees = {m.bit_count() for m in graph.in_masks()}
    if len(degrees) != 1 or degrees != in_degrees:
        raise PreconditionError("graph is not regular with equal in/out degrees")
    d = degrees.pop()
    report = arc_connectivity(graph, k, arc_transitive=arc_transitive)
    sizes = tuple(sorted({len(c) for c in report.atoms}))
    anti = is_antisymmetric(graph)
    checks: list[tuple[str, bool, int, int]] = []
    size_cap = max(k, 2 * k - 2)
    checks.append(("atom_size_cap", max(sizes) <= size_cap, max(sizes), size_cap))
    plain_clause = 3 * (k - 1) <= d
    anti_clause = anti and 3 * (k - 1) <= 2 * d
    if plain_clause or anti_clause:
        name = "atom_size_k" if plain_clause else "atom_size_k_antisymmetric"
        checks.append((name, sizes == (k,), max(sizes), k))
        if k <= 4:
            ek = max_induced_arcs(graph, k)
            checks.append(
                ("lambda_degree_bound", report.lam >= d * k - ek, report.lam, d * k - ek)
            )
    return ArcAtomVerdict(
        k=k,
        degree=d,
        antisymmetric=anti,
        lam=report.lam,
        atom_sizes=sizes,
        checks=tuple(checks),
    )
