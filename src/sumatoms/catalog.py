"""Builtin group catalog for verification sweeps.

Covers cyclic and dihedral groups, their direct products, and the
semidirect family members, up to an order bound.  Obvious isomorphic
duplicates are skipped: the cyclic factors of a product, in non-decreasing
order, must each divide the next (so every abelian group keeps its
invariant-factor form: C2 x C12, not C4 x C6), and C2 x D_m with m odd is
dihedral.  No general isomorphism testing is attempted; the occasional
redundant entry only adds coverage.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import (
    FiniteGroup,
    direct_product,
    make_cyclic,
    make_dihedral,
    make_semidirect,
    _is_prime,
)


@dataclass(frozen=True)
class GroupSpec:
    """A deterministic recipe for one catalog group (cheap to ship to workers).

    ``params`` encodes product factors as (parameter, is_dihedral) pairs,
    flattened; cyclic/dihedral/semidirect specs use it directly.
    """

    kind: str  # "cyclic" | "dihedral" | "product" | "semidirect"
    params: tuple[int, ...]
    order: int
    name: str


def _factor_ok(factors: tuple[tuple[int, int], ...]) -> bool:
    for i, (pa, da) in enumerate(factors):
        for pb, db in factors[i + 1 :]:
            if not da and not db and pb % pa:
                return False  # not an invariant-factor chain: C4 x C6 is C2 x C12
            if da != db:
                cyclic_param = pb if da else pa
                dihedral_param = pa if da else pb
                if cyclic_param == 2 and dihedral_param % 2:
                    return False  # C2 x D_odd is dihedral
    return True


def _products(max_order: int) -> list[GroupSpec]:
    bases: list[tuple[int, int, int]] = [  # (order, param, is_dihedral)
        (n, n, 0) for n in range(2, max_order // 2 + 1)
    ]
    bases.extend((2 * m, m, 1) for m in range(3, max_order // 4 + 1))
    bases.sort()
    out: list[GroupSpec] = []

    def extend(start: int, factors: tuple[tuple[int, int], ...], order: int) -> None:
        if len(factors) >= 2 and _factor_ok(factors):
            name = "x".join(f"D{p}" if d else f"C{p}" for p, d in factors)
            flat = tuple(v for pair in factors for v in pair)
            out.append(GroupSpec("product", flat, order, name))
        for i in range(start, len(bases)):
            border, param, dihedral = bases[i]
            if order * border > max_order:
                continue
            extend(i, factors + ((param, dihedral),), order * border)

    extend(0, (), 1)
    return out


def catalog_specs(max_order: int) -> list[GroupSpec]:
    """Deterministic catalog, sorted by (order, name)."""
    specs = [GroupSpec("cyclic", (n,), n, f"C{n}") for n in range(2, max_order + 1)]
    specs.extend(
        GroupSpec("dihedral", (m,), 2 * m, f"D{m}")
        for m in range(3, max_order // 2 + 1)
    )
    specs.extend(_products(max_order))
    for p in range(3, max_order + 1):
        if not _is_prime(p):
            continue
        for q in range(3, p):
            if p * q <= max_order and _is_prime(q) and (p - 1) % q == 0:
                specs.append(GroupSpec("semidirect", (p, q), p * q, f"SD({p},{q})"))
    specs.sort(key=lambda s: (s.order, s.name))
    return specs


def build_group(spec: GroupSpec) -> FiniteGroup:
    """The group of ``spec``, built under the default order cap."""
    if spec.kind == "cyclic":
        return make_cyclic(spec.params[0])
    if spec.kind == "dihedral":
        return make_dihedral(spec.params[0])
    if spec.kind == "semidirect":
        return make_semidirect(spec.params[0], spec.params[1])
    if spec.kind == "product":
        factors = [
            (spec.params[i], spec.params[i + 1]) for i in range(0, len(spec.params), 2)
        ]
        group = None
        for param, dihedral in factors:
            piece = make_dihedral(param) if dihedral else make_cyclic(param)
            group = piece if group is None else direct_product(group, piece)
        return group
    raise ValueError(f"unknown spec kind {spec.kind!r}")
