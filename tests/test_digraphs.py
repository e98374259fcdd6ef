import random
from collections import Counter

import pytest

from sumatoms import (
    DisconnectedGraphError,
    EngineMismatchError,
    GraphTooLargeError,
    GroupSubset,
    PreconditionError,
    arc_atom_cardinality_check,
    arc_connectivity,
    arc_connectivity_exhaustive,
    arc_connectivity_flow,
    bidirected_clique,
    build_example,
    build_quotient_graph,
    contains_k4_star,
    directed_cycle,
    enumerate_subgroups,
    every_arc_in_oriented_triangle,
    format_graph_dump,
    is_antisymmetric,
    is_octahedron_underlying,
    is_strongly_connected,
    make_cyclic,
    max_induced_arcs,
    oriented_octahedron,
    oriented_rook,
    verify_translation_transitivity,
)
from sumatoms import digraphs, sweeps
from sumatoms.catalog import build_group, catalog_specs
from sumatoms.digraphs import coset_vertices, graph_from_arcs
from sumatoms.groups import double_coset_mask
from sumatoms.sumsets import product_set


def test_quotient_family_instance():
    inst = build_example(7, 3)
    q = build_quotient_graph(inst.group, inst.subgroup, inst.a)
    assert q.vertex_count == 7
    assert all(m.bit_count() == 3 for m in q.out_masks)
    verdict = verify_translation_transitivity(q, inst.group, inst.subgroup, inst.a)
    assert verdict.passed and verdict.degree == 3
    # the quotient of a coset-pair atom cannot be symmetric
    assert not all(q.out_masks[v] >> u & 1 for u, v in q.arcs())


def test_quotient_abelian_collapse():
    g6 = make_cyclic(6)
    h = GroupSubset.from_indices(g6, [0, 3])
    q = build_quotient_graph(g6, h, 1)
    assert q.vertex_count == 3
    assert all(m.bit_count() == 1 for m in q.out_masks)
    assert sorted(q.arcs()) == [(0, 1), (1, 2), (2, 0)]


def test_quotient_trivial_subgroup_is_cayley_cycle():
    g6 = make_cyclic(6)
    h = GroupSubset.from_indices(g6, [0])
    q = build_quotient_graph(g6, h, 1)
    assert sorted(q.arcs()) == [(i, (i + 1) % 6) for i in range(6)]
    verdict = verify_translation_transitivity(q, g6, h, 1)
    assert verdict.passed and verdict.degree == 1


def test_quotient_arc_rule_literal():
    # independent re-derivation: arc Hx -> Hy exactly when Hy lies inside HaHx
    import random as rnd

    from sumatoms.groups import double_coset_mask, right_coset_mask

    rng = rnd.Random(19)
    for spec in catalog_specs(12):
        if spec.order < 6:
            continue
        group = build_group(spec)
        subgroups = [h for h in enumerate_subgroups(group) if 2 <= len(h) < group.order]
        if not subgroups:
            continue
        h = subgroups[rng.randrange(len(subgroups))]
        outside = [a for a in range(1, group.order) if a not in h]
        a = outside[rng.randrange(len(outside))]
        graph = build_quotient_graph(group, h, a)
        reps, _ = coset_vertices(group, h.mask)
        dc = double_coset_mask(group, h.mask, a)
        for i, x in enumerate(reps):
            dcx = 0
            for d in range(group.order):
                if dc >> d & 1:
                    dcx |= 1 << group.table[d][x]
            for j, y in enumerate(reps):
                hy = right_coset_mask(group, h.mask, y)
                expected = hy & ~dcx == 0
                assert bool(graph.out_masks[i] >> j & 1) == expected


def test_quotient_rejects_a_in_h():
    g6 = make_cyclic(6)
    h = GroupSubset.from_indices(g6, [0, 3])
    with pytest.raises(PreconditionError):
        build_quotient_graph(g6, h, 3)
    with pytest.raises(PreconditionError):
        build_quotient_graph(g6, GroupSubset.from_indices(g6, [0, 1]), 2)


def test_quotient_degree_invariant():
    # in-degree = out-degree = |HaH| / |H|, equal to |H| exactly when the
    # conjugate of H by a meets H trivially
    rng = random.Random(9)
    checked = 0
    for spec in catalog_specs(16):
        if spec.order < 6:
            continue
        group = build_group(spec)
        subgroups = [h for h in enumerate_subgroups(group) if 2 <= len(h) < group.order]
        for h in subgroups[:4]:
            outside = [a for a in range(1, group.order) if a not in h]
            for a in outside[:3]:
                q = build_quotient_graph(group, h, a)
                expected = double_coset_mask(group, h.mask, a).bit_count() // len(h)
                ins = q.in_masks()
                assert all(m.bit_count() == expected for m in q.out_masks)
                assert all(m.bit_count() == expected for m in ins)
                conj = h.left_translate(group.inverse[a]).right_translate(a)
                trivial_meet = len(h.intersection(conj)) == 1
                assert (expected == len(h)) == trivial_meet
                checked += 1
        if checked > 40:
            break
    assert checked > 20


def test_transitivity_fails_on_path():
    # hand-built non-transitive graphs over the 3-coset structure of Z6
    g6 = make_cyclic(6)
    h = GroupSubset.from_indices(g6, [0, 3])
    path = graph_from_arcs(3, [(0, 1), (1, 2)])
    verdict = verify_translation_transitivity(path, g6, h, 1)
    assert not verdict.passed and verdict.failures
    assert not verdict.regular
    bad = graph_from_arcs(3, [(0, 1), (1, 0), (1, 2)])
    verdict2 = verify_translation_transitivity(bad, g6, h, 1)
    assert not verdict2.passed and verdict2.failures
    # vertex-count mismatch is a precondition problem
    with pytest.raises(PreconditionError):
        verify_translation_transitivity(graph_from_arcs(2, [(0, 1)]), g6, h, 1)


def test_outgoing_arcs():
    # At most 2|H| - 1 arcs leave the cosets that HS covers.
    inst = build_example(7, 3)
    q = build_quotient_graph(inst.group, inst.subgroup, inst.a)
    hs = product_set(inst.subgroup, inst.subset)
    _, coset_of = coset_vertices(inst.group, inst.subgroup.mask)
    hs_vertices = {coset_of[y] for y in hs}
    leaving = sum(1 for u, v in q.arcs() if u in hs_vertices and v not in hs_vertices)
    assert leaving <= 2 * len(inst.subgroup) - 1


def test_arc_connectivity_examples():
    c5 = directed_cycle(5)
    assert arc_connectivity(c5, 1).lam == 1
    rep = arc_connectivity(c5, 2)
    assert rep.lam == 1
    assert rep.atoms == ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4))
    k4 = bidirected_clique(4)
    assert arc_connectivity(k4, 1).lam == 3
    assert arc_connectivity(k4, 2).lam == 4


def test_nonpositive_k_is_a_precondition():
    c5 = directed_cycle(5)
    for engine in (arc_connectivity, arc_connectivity_exhaustive, arc_connectivity_flow):
        for k in (0, -2):
            with pytest.raises(PreconditionError, match="k must be positive"):
                engine(c5, k)


def test_arc_connectivity_errors():
    with pytest.raises(PreconditionError):
        arc_connectivity(directed_cycle(3), 2)  # not 2-separable
    two_cycles = graph_from_arcs(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    with pytest.raises(DisconnectedGraphError):
        arc_connectivity(two_cycles, 1)
    with pytest.raises(GraphTooLargeError):
        arc_connectivity(directed_cycle(20), 2, exact_cap=10)


def test_engine_disagreement_is_typed(monkeypatch):
    real = digraphs._flow_lambda1

    def off_by_one(graph):
        lam, sides = real(graph)
        return lam + 1, sides

    monkeypatch.setattr(digraphs, "_flow_lambda1", off_by_one)
    with pytest.raises(EngineMismatchError):
        arc_connectivity(directed_cycle(5), 1)


def test_graph_sweep_checks_the_large_graph_routes(monkeypatch):
    # Every sweep graph has at most 12 vertices; its production call must
    # still take the flow and transitive-sweep routes, so that the exhaustive
    # engine it is compared with is not compared with itself.
    real = sweeps.arc_connectivity
    methods = Counter()

    def counting(*args, **kwargs):
        report = real(*args, **kwargs)
        methods[report.method] += 1
        return report

    monkeypatch.setattr(sweeps, "arc_connectivity", counting)
    result = sweeps.sweep_graph_lemmas(8)
    assert result.passed and len(result.rows) == 25
    assert sum(row.checks for row in result.rows) == 220
    assert methods["flow"] == 25 and methods["transitive-sweep"] == 39
    assert methods["flow+enumeration"] == 0


def test_engines_agree():
    graphs = [directed_cycle(n) for n in range(3, 11)]
    graphs += [bidirected_clique(n) for n in range(3, 6)]
    graphs.append(oriented_octahedron())
    inst = build_example(7, 3)
    graphs.append(build_quotient_graph(inst.group, inst.subgroup, inst.a))
    for graph in graphs:
        n = graph.vertex_count
        for k in (1, 2, 3):
            if n < 2 * k:
                continue
            exh = arc_connectivity_exhaustive(graph, k)
            prod = arc_connectivity(graph, k)
            assert prod.lam == exh.lam
            assert prod.atoms == exh.atoms
            if k <= 2 or n <= 8:
                assert arc_connectivity_flow(graph, k) == exh.lam


def test_lambda_monotone():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(4, 9)
        arcs = {(i, (i + 1) % n) for i in range(n)}
        for _ in range(rng.randint(1, 2 * n)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                arcs.add((u, v))
        graph = graph_from_arcs(n, sorted(arcs))
        if not is_strongly_connected(graph):
            continue
        lams = [
            arc_connectivity_exhaustive(graph, k).lam for k in range(1, n // 2 + 1)
        ]
        assert lams == sorted(lams)


def test_atom_cardinality_checks():
    k4 = bidirected_clique(4)
    verdict = arc_atom_cardinality_check(k4, 2, arc_transitive=True)
    assert verdict.passed
    assert verdict.atom_sizes == (2,)  # 3(k-1) <= d: atoms have exactly k vertices
    assert verdict.lam >= verdict.degree * 2 - max_induced_arcs(k4, 2)
    tri = directed_cycle(3)
    v2 = arc_atom_cardinality_check(tri, 1, arc_transitive=True)
    assert v2.passed and v2.atom_sizes == (1,)
    inst = build_example(7, 3)
    q = build_quotient_graph(inst.group, inst.subgroup, inst.a)
    v3 = arc_atom_cardinality_check(q, 3, arc_transitive=True)
    assert v3.passed
    assert max(v3.atom_sizes) <= 4


def test_antisymmetry_detectors():
    assert is_antisymmetric(directed_cycle(5))
    assert not is_antisymmetric(bidirected_clique(4))
    k4 = bidirected_clique(4)
    assert all(k4.out_masks[v] >> u & 1 for u, v in k4.arcs())
    inst = build_example(7, 3)
    q = build_quotient_graph(inst.group, inst.subgroup, inst.a)
    assert is_antisymmetric(q) == all(
        not (q.out_masks[v] >> u & 1)
        for u in range(7)
        for v in range(7)
        if q.out_masks[u] >> v & 1
    )


def test_oriented_triangles():
    assert every_arc_in_oriented_triangle(directed_cycle(3))
    assert not every_arc_in_oriented_triangle(directed_cycle(4))
    assert every_arc_in_oriented_triangle(oriented_octahedron())


def test_k4_star_detection():
    assert contains_k4_star(directed_cycle(8)) is None
    assert contains_k4_star(directed_cycle(3)) is None
    witness = contains_k4_star(oriented_octahedron())
    assert witness is not None
    u, v, w, x = witness
    mask = (1 << u) | (1 << v) | (1 << w) | (1 << x)
    oct_ = oriented_octahedron()
    arcs = sum((oct_.out_masks[y] & mask).bit_count() for y in witness)
    assert arcs >= 5


def test_octahedron_recognition():
    assert is_octahedron_underlying(oriented_octahedron())
    assert not is_octahedron_underlying(directed_cycle(6))
    # prism: two triangles joined by a matching (cubic, so not the octahedron)
    prism = graph_from_arcs(
        6,
        [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)],
    )
    assert not is_octahedron_underlying(prism)


def test_graph_dump_format():
    c3 = directed_cycle(3)
    assert format_graph_dump(c3) == "3 3\n0 1\n1 2\n2 0\n"


GOLDEN_QUOTIENT_73 = (
    "7 21\n"
    "0 1\n0 2\n0 3\n"
    "1 3\n1 4\n1 5\n"
    "2 1\n2 5\n2 6\n"
    "3 2\n3 4\n3 6\n"
    "4 0\n4 2\n4 5\n"
    "5 0\n5 3\n5 6\n"
    "6 0\n6 1\n6 4\n"
)


def test_quotient_dump_golden():
    inst = build_example(7, 3)
    q = build_quotient_graph(inst.group, inst.subgroup, inst.a)
    assert format_graph_dump(q) == GOLDEN_QUOTIENT_73


def test_max_induced_arcs():
    assert max_induced_arcs(bidirected_clique(4), 2) == 2
    assert max_induced_arcs(directed_cycle(5), 3) == 2
    assert max_induced_arcs(oriented_octahedron(), 3) == 3


def test_oriented_rook_degree_2_profile():
    # the live degree-2 instance: antisymmetric, triangle-rich, 4-separable
    from sumatoms import oriented_rook

    rook = oriented_rook()
    assert rook.vertex_count == 9
    assert {m.bit_count() for m in rook.out_masks} == {2}
    assert is_antisymmetric(rook)
    assert every_arc_in_oriented_triangle(rook)
    assert contains_k4_star(rook) is None
    lams = [arc_connectivity_exhaustive(rook, k).lam for k in (1, 2, 3, 4)]
    assert lams == [2, 3, 3, 4]
    assert lams[3] >= 4  # degree-2 separable graphs in this regime
    # in the low-connectivity regime the arc 3-atoms are directed triangles
    atoms3 = arc_connectivity_exhaustive(rook, 3).atoms
    for atom in atoms3:
        assert len(atom) == 3
        u, v, w = atom
        cyclic = (
            rook.out_masks[u] >> v & 1
            and rook.out_masks[v] >> w & 1
            and rook.out_masks[w] >> u & 1
        ) or (
            rook.out_masks[u] >> w & 1
            and rook.out_masks[w] >> v & 1
            and rook.out_masks[v] >> u & 1
        )
        assert cyclic


def test_flow_matches_enumeration_to_sixteen_vertices():
    for n in range(13, 17):
        graph = directed_cycle(n)
        rep = arc_connectivity(graph, 1)
        assert rep.lam == 1 and rep.method == "flow+enumeration"
        for k in (2, 3):
            assert arc_connectivity_exhaustive(graph, k).lam == 1


def test_flow_sides_are_minimum_cuts():
    # The k = 1 flow route lists its atoms straight from the residual sides
    # of minimum flows: each must have exactly lambda_1 outgoing arcs.
    graphs = [directed_cycle(n) for n in range(17, 25)]
    inst = build_example(23, 11)
    graphs.append(build_quotient_graph(inst.group, inst.subgroup, inst.a))
    for graph in graphs:
        lam, sides = digraphs._flow_lambda1(graph)
        assert sides
        for side in sides:
            leaving = sum(1 for u, v in graph.arcs() if side >> u & 1 and not side >> v & 1)
            assert leaving == lam
    assert graphs[-1].vertex_count == 23


def test_transitive_sweep_matches_exhaustive():
    # exact_cap=2 forces the size-bounded sweep on every arc-transitive graph
    graphs = [directed_cycle(n) for n in range(3, 13)]
    graphs += [bidirected_clique(n) for n in range(3, 7)]
    graphs += [oriented_octahedron(), oriented_rook()]
    for p, q in ((7, 3), (11, 5)):
        inst = build_example(p, q)
        graphs.append(build_quotient_graph(inst.group, inst.subgroup, inst.a))
    cases = truncated = 0
    for graph in graphs:
        for k in range(2, graph.vertex_count // 2 + 1):
            sweep = arc_connectivity(graph, k, arc_transitive=True, exact_cap=2)
            exh = arc_connectivity_exhaustive(graph, k)
            assert sweep.method == "transitive-sweep" and exh.method == "exhaustive"
            assert sweep.lam == exh.lam
            assert len(sweep.atoms[0]) == len(exh.atoms[0])
            assert sweep.atoms_complete == exh.atoms_complete
            if exh.atoms_complete:
                assert sweep.atoms == exh.atoms
            else:
                truncated += 1
                assert len(sweep.atoms) == len(exh.atoms) == 256
            cases += 1
    assert (cases, truncated) == (40, 2)
