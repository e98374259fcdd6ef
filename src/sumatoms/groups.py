"""Finite groups as explicit multiplication tables, with subsets as bitmasks.

A group of order n lives on element indices 0..n-1 with the identity pinned
at index 0.  Every constructor validates the full set of axioms (identity,
Latin square, associativity, two-sided inverses), so downstream code never
has to doubt a table.  Subsets of a group are immutable bitmasks wrapped in
:class:`GroupSubset`, the common currency of all set arithmetic here.
"""

from __future__ import annotations

import math
import weakref
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .bitset import bit_indices, indices_tuple, permute_mask
from .errors import (
    GroupMismatchError,
    ParseError,
    PreconditionError,
    SizeCapError,
    ValidationError,
)

DEFAULT_ORDER_CAP = 2048
IDENTITY = 0


def _light_generators(n: int, column_of: Callable[[int], Sequence[int]]) -> list[int]:
    """A set Γ from which right multiplication reaches every element.

    ``column_of(g)`` lists x*g for x = 0..n-1.  Greedy: each step adds the
    least element not yet reached from the identity by x -> x*g, g in Γ.
    Works on an unproven table with Latin columns, so it uses no inverses.
    O(n |Γ|) steps.
    """
    reached = [False] * n
    reached[IDENTITY] = True
    gens: list[int] = []
    columns: list[Sequence[int]] = []
    while not all(reached):
        gens.append(reached.index(False))
        newest = column_of(gens[-1])
        columns.append(newest)
        # Elements reached before need only the new generator; the ones it
        # reaches need all of them.  A column is a permutation, so no repeats.
        stack = [y for x, y in enumerate(newest) if reached[x] and not reached[y]]
        for y in stack:
            reached[y] = True
        while stack:
            x = stack.pop()
            for column in columns:
                y = column[x]
                if not reached[y]:
                    reached[y] = True
                    stack.append(y)
    return gens


def _light_associativity_failure(arr: np.ndarray) -> Optional[tuple[int, int, int]]:
    """A triple (x, g, y) with (xg)y != x(gy), or None if the table is associative.

    Light's test (Clifford & Preston, *The Algebraic Theory of Semigroups* I,
    §1.2) checks g only over :func:`_light_generators`: the g with
    (xg)y = x(gy) for all x, y are closed under products, and every element
    is a left-normed product of generators.  O(n^2 |Γ|) work.
    """
    for g in _light_generators(len(arr), lambda g: arr[:, g].tolist()):
        lhs = arr[arr[:, g]]  # lhs[x, y] = (x*g)*y
        rhs = arr[:, arr[g]]  # rhs[x, y] = x*(g*y)
        if not np.array_equal(lhs, rhs):
            x, y = map(int, np.argwhere(lhs != rhs)[0])
            return x, g, y
    return None


def _full_associativity_failure(arr: np.ndarray) -> Optional[tuple[int, int, int]]:
    """Reference for Light's test: every triple, O(n^3).  Only tests call it."""
    for i, row in enumerate(arr):
        lhs = arr[row]  # lhs[j, k] = (i*j)*k
        rhs = row[arr]  # rhs[j, k] = i*(j*k)
        if not np.array_equal(lhs, rhs):
            j, k = map(int, np.argwhere(lhs != rhs)[0])
            return i, j, k
    return None


def _validate_table(table: Sequence[Sequence[int]]) -> np.ndarray:
    """Check all group axioms, raising ValidationError naming the first failure.

    Returns the table as an int64 array.
    """
    n = len(table)
    for i, row in enumerate(table):
        if len(row) != n:
            raise ValidationError(f"row {i} has {len(row)} entries, expected {n}")
    try:
        arr = np.asarray(table, dtype=np.int64)
    except OverflowError:  # an entry beyond int64 is out of range as well
        arr = None
    if arr is None or not np.all((0 <= arr) & (arr < n)):
        i, x = next((i, x) for i, row in enumerate(table) for x in row if not 0 <= x < n)
        raise ValidationError(f"row {i} entry {x} out of range [0,{n})")
    ident = np.arange(n)
    if not (np.array_equal(arr[0], ident) and np.array_equal(arr[:, 0], ident)):
        raise ValidationError("identity not at index 0")
    # The sorted copies are dropped at once, so they do not stay alive
    # next to the arrays of Light's test.
    bad_rows = np.flatnonzero(np.any(np.sort(arr, axis=1) != ident, axis=1))
    if len(bad_rows):
        raise ValidationError(f"row {bad_rows[0]} not a permutation")
    bad_columns = np.flatnonzero(np.any(np.sort(arr, axis=0) != ident[:, None], axis=0))
    if len(bad_columns):
        raise ValidationError(f"column {bad_columns[0]} not a permutation")
    triple = _light_associativity_failure(arr)
    if triple is not None:
        x, g, y = triple
        raise ValidationError(f"associativity fails at triple ({x},{g},{y})")
    inv = np.argmax(arr == IDENTITY, axis=1)
    if not np.all(arr[inv, ident] == IDENTITY):
        bad = int(np.nonzero(arr[inv, ident] != IDENTITY)[0][0])
        raise ValidationError(f"missing inverse for element {bad}")
    return arr


class FiniteGroup:
    """A finite group given by its full multiplication table.

    ``table[i][j]`` is the index of the product of elements i and j; the
    identity is element 0.  ``table_array`` is the same table as a read-only
    numpy array of the smallest unsigned dtype that holds n - 1.  Instances
    are immutable after construction and safe to share between threads or
    worker processes.
    """

    __slots__ = (
        "order",
        "table",
        "table_array",
        "inverse",
        "labels",
        "name",
        "_columns",
        "_elem_orders",
        "_abelian",
        "_subgroups",
    )

    def __init__(
        self,
        table: Sequence[Sequence[int]],
        *,
        labels: Optional[Sequence[str]] = None,
        name: str = "group",
        cap: int = DEFAULT_ORDER_CAP,
    ) -> None:
        n = len(table)
        if n < 1:
            raise ValidationError("group table is empty")
        if n > cap:
            raise SizeCapError(f"group order {n} exceeds cap {cap}")
        self.order = n
        arr = _validate_table(table)
        # Rows share the n int objects 0..n-1; a plain ``tolist`` would make
        # n^2 fresh ints (37 MB at n = 1081) next to the validated array.
        self.table = np.array(range(n), dtype=object)[arr].tolist()
        self.table_array = arr.astype(np.min_scalar_type(n - 1))
        self.table_array.flags.writeable = False
        self.inverse = [row.index(IDENTITY) for row in self.table]
        if labels is not None and len(labels) != n:
            raise ValidationError(f"{len(labels)} labels for {n} elements")
        self.labels = list(labels) if labels is not None else None
        self.name = name
        self._columns: Optional[list[list[int]]] = None
        self._elem_orders: Optional[list[int]] = None
        self._abelian: Optional[bool] = None
        # Subgroup masks, not GroupSubset objects: a subset holds its group,
        # so caching subsets here would make a reference cycle that keeps a
        # dropped group's tables alive until the next full garbage collection.
        self._subgroups: Optional[tuple[int, ...]] = None

    def label(self, a: int) -> str:
        if self.labels is None:
            return str(a)
        return self.labels[a]

    def column(self, g: int) -> list[int]:
        """The right-multiplication permutation x -> x*g."""
        if self._columns is None:
            self._columns = [list(col) for col in zip(*self.table)]
        return self._columns[g]

    def element_order(self, g: int) -> int:
        if self._elem_orders is None:
            self._elem_orders = [0] * self.order
        cached = self._elem_orders[g]
        if cached:
            return cached
        x, k = g, 1
        while x != IDENTITY:
            x = self.table[x][g]
            k += 1
        self._elem_orders[g] = k
        return k

    @property
    def is_abelian(self) -> bool:
        if self._abelian is None:
            t = self.table
            self._abelian = all(
                t[i][j] == t[j][i] for i in range(self.order) for j in range(i)
            )
        return self._abelian

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"


@dataclass(frozen=True)
class GroupSubset:
    """A subset of a group's elements, stored as a bitmask over indices."""

    group: FiniteGroup
    mask: int

    def __post_init__(self) -> None:
        if not 0 <= self.mask < (1 << self.group.order):
            raise ValidationError("subset bitmask out of range for group order")

    @classmethod
    def from_indices(cls, group: FiniteGroup, indices: Iterable[int]) -> "GroupSubset":
        m = 0
        for i in indices:
            if not 0 <= i < group.order:
                raise ValidationError(f"element index {i} out of range [0,{group.order})")
            m |= 1 << i
        return cls(group, m)

    @classmethod
    def from_literal(cls, group: FiniteGroup, text: str) -> "GroupSubset":
        """Parse the one-line subset literal: space-separated element indices."""
        try:
            indices = [int(tok) for tok in text.split()]
        except ValueError as exc:
            raise ParseError(f"bad subset literal {text!r}") from exc
        return cls.from_indices(group, indices)

    @classmethod
    def empty(cls, group: FiniteGroup) -> "GroupSubset":
        return cls(group, 0)

    @classmethod
    def full(cls, group: FiniteGroup) -> "GroupSubset":
        return cls(group, (1 << group.order) - 1)

    def indices(self) -> tuple[int, ...]:
        return indices_tuple(self.mask)

    def to_literal(self) -> str:
        return " ".join(str(i) for i in self.indices())

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __contains__(self, i: int) -> bool:
        return bool(self.mask >> i & 1)

    def __iter__(self) -> Iterator[int]:
        return bit_indices(self.mask)

    def inverse_set(self) -> "GroupSubset":
        """Elementwise inverses {x^-1 : x in X}, built once per set object.

        ``self`` when X = X^-1; otherwise a set whose own inverse is this one
        while this one lives.  The set holds its inverse, and the inverse
        links back weakly (as a symmetric set links to itself), so neither
        forms a reference cycle.
        """
        link = self.__dict__.get("_inverse")
        inv = link() if isinstance(link, weakref.ref) else link
        if inv is None:
            mask = permute_mask(self.mask, self.group.inverse)
            if mask == self.mask:
                inv = self
                self.__dict__["_inverse"] = weakref.ref(self)
            else:
                inv = GroupSubset(self.group, mask)
                self.__dict__["_inverse"] = inv
                inv.__dict__["_inverse"] = weakref.ref(self)
        return inv

    def right_translate(self, g: int) -> "GroupSubset":
        """X*g."""
        return GroupSubset(self.group, permute_mask(self.mask, self.group.column(g)))

    # The translate masks below are built once per set object.  They are not
    # fields: equality, hashing and repr ignore them.

    @cached_property
    def xs_masks(self) -> list[int]:
        """``xs_masks[x]`` is the mask of x*S."""
        return translate_masks(self.group, self.mask)

    @cached_property
    def neighbor_masks(self) -> list[int]:
        """``neighbor_masks[x]`` is the mask of x*(S*S^-1) without x.

        This is the adjacency of the connected fragment search: two elements
        whose product sets overlap are neighbors.
        """
        shared = product_mask(self.group, self.mask, self.inverse_set().mask)
        return [m & ~(1 << x) for x, m in enumerate(translate_masks(self.group, shared))]

    def product(self, ymask: int) -> int:
        """Mask of Y*S, the union of the translates y*S for y in Y.

        Pays for n translates once per set; a one-off product is cheaper with
        :func:`product_mask`.
        """
        xs = self.xs_masks
        out = 0
        for y in bit_indices(ymask):
            out |= xs[y]
        return out

    def is_subgroup(self) -> bool:
        if not self.mask & 1:
            return False
        table = self.group.table
        members = self.indices()
        m = self.mask
        return all(m >> table[a][b] & 1 for a in members for b in members)

    def __repr__(self) -> str:
        return f"GroupSubset({self.group.name!r}, {{{self.to_literal()}}})"


def require_same_group(group: FiniteGroup, *subsets: GroupSubset) -> FiniteGroup:
    """``group``, once every subset is checked to belong to it."""
    if any(s.group is not group for s in subsets):
        raise GroupMismatchError("operands belong to different groups")
    return group


def translate_masks(group: FiniteGroup, mask: int) -> list[int]:
    """The masks of the left translates x*M for x = 0..n-1, in one numpy scatter.

    Row x of the table maps M to x*M.  The scatter works on the smaller of M
    and its complement, as :func:`permute_mask` does: a bijection maps the
    complement of a set to the complement of its image.  Each row's bits are
    packed into ceil(n/8) little-endian bytes and read back as one int.
    The empty set and G, whose smaller side is empty, are their own
    translates and need no scatter.
    """
    n = group.order
    full = (1 << n) - 1 if mask.bit_count() * 2 > n else 0
    if mask == full:
        return [mask] * n
    width = -(-n // 8)
    bits = np.zeros((n, 8 * width), dtype=bool)
    columns = group.table_array.take(list(bit_indices(mask ^ full)), axis=1)
    bits[np.arange(n)[:, None], columns] = True
    rows = np.packbits(bits, bitorder="little").view(f"V{width}").tolist()
    return [int.from_bytes(row, "little") ^ full for row in rows]


def product_mask(group: FiniteGroup, xmask: int, ymask: int) -> int:
    """Bitmask of {x*y : x in X, y in Y}; stops once it covers the group."""
    table = group.table
    full = (1 << group.order) - 1
    out = 0
    for x in bit_indices(xmask):
        out |= permute_mask(ymask, table[x])
        if out == full:
            break
    return out


# ---------------------------------------------------------------------------
# Construction


def _group_from_mul(
    n: int,
    mul: Callable[[np.ndarray, np.ndarray], np.ndarray],
    *,
    labels: Optional[Sequence[str]] = None,
    name: str = "group",
    cap: int = DEFAULT_ORDER_CAP,
) -> FiniteGroup:
    if n > cap:
        raise SizeCapError(f"group order {n} exceeds cap {cap}")
    index = np.arange(n)
    table = mul(index[:, None], index[None, :])
    return FiniteGroup(table, labels=labels, name=name, cap=cap)


def make_cyclic(n: int, *, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """The cyclic group of order n, written additively on 0..n-1."""
    if n < 1:
        raise ValidationError(f"cyclic order must be positive, got {n}")
    return _group_from_mul(n, lambda i, j: (i + j) % n, name=f"C{n}", cap=cap)


def make_dihedral(m: int, *, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """The dihedral group of order 2m: rotations r^j (j < m), reflections f r^j.

    Element j < m is r^j and element m + j is f r^j, with f r f = r^-1.
    """
    if m < 3:
        raise ValidationError(f"dihedral parameter must be >= 3, got {m}")

    def mul(i: np.ndarray, j: np.ndarray) -> np.ndarray:
        e1, j1 = np.divmod(i, m)
        e2, j2 = np.divmod(j, m)
        jj = np.where(e1 == 0, j1 + j2, j1 - j2) % m
        return (e1 ^ e2) * m + jj

    labels = [f"r{j}" for j in range(m)] + [f"fr{j}" for j in range(m)]
    return _group_from_mul(2 * m, mul, labels=labels, name=f"D{m}", cap=cap)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, int(math.isqrt(n)) + 1):
        if n % d == 0:
            return False
    return True


def make_semidirect(p: int, q: int, *, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """The nonabelian group of order p*q built from pairs (x, h).

    Elements are pairs with x mod p and h in the order-q subgroup of the
    multiplicative group mod p; the product is (x,h)(y,k) = (x + h*y, h*k).
    Requires q an odd prime dividing p - 1.  Pair (x, h) gets index
    x*q + rank(h) with the h-values sorted ascending, so (0,1) is index 0.
    """
    if not _is_prime(p) or not _is_prime(q):
        raise ValidationError(f"({p},{q}): both parameters must be prime")
    if q == 2:
        raise ValidationError(f"({p},{q}): second parameter must be odd")
    if (p - 1) % q != 0:
        raise ValidationError(f"({p},{q}): {q} does not divide {p - 1}")
    if p * q > cap:
        raise SizeCapError(f"group order {p * q} exceeds cap {cap}")
    h0 = sorted(h for h in range(1, p) if pow(h, q, p) == 1)
    if len(h0) != q:
        raise ValidationError(f"({p},{q}): multiplicative subgroup has wrong size")
    hs = np.array(h0)
    rank = np.zeros(p, dtype=np.int64)
    rank[hs] = np.arange(q)

    def mul(i: np.ndarray, j: np.ndarray) -> np.ndarray:
        x, h = np.divmod(i, q)
        y, k = np.divmod(j, q)
        return ((x + hs[h] * y) % p) * q + rank[hs[h] * hs[k] % p]

    labels = [f"({x},{h})" for x in range(p) for h in h0]
    return _group_from_mul(p * q, mul, labels=labels, name=f"SD({p},{q})", cap=cap)


def direct_product(
    a: FiniteGroup, b: FiniteGroup, *, cap: int = DEFAULT_ORDER_CAP
) -> FiniteGroup:
    """Direct product with pair (i, j) at index i*|b| + j."""
    n = a.order * b.order
    if n > cap:
        raise SizeCapError(f"group order {n} exceeds cap {cap}")
    nb = b.order
    ta, tb = np.array(a.table), np.array(b.table)

    def mul(i: np.ndarray, j: np.ndarray) -> np.ndarray:
        i1, i2 = np.divmod(i, nb)
        j1, j2 = np.divmod(j, nb)
        return ta[i1, j1] * nb + tb[i2, j2]

    labels = [f"({a.label(i)},{b.label(j)})" for i in range(a.order) for j in range(b.order)]
    return _group_from_mul(n, mul, labels=labels, name=f"{a.name}x{b.name}", cap=cap)


def load_group_table(text: str, *, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Parse and validate the line-oriented group-table document.

    Line 1 is the order n, lines 2..n+1 hold the table rows, and optional
    trailing lines "# i name" attach element labels.
    """
    lines = [line.strip() for line in text.splitlines()]
    lines = [line for line in lines if line]
    if not lines:
        raise ParseError("empty group table document")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise ParseError(f"first line must be the order, got {lines[0]!r}") from exc
    if n < 1:
        raise ParseError(f"order must be positive, got {n}")
    if n > cap:
        raise SizeCapError(f"group order {n} exceeds cap {cap}")
    if len(lines) < n + 1:
        raise ParseError(f"expected {n} table rows, found {len(lines) - 1}")
    table = []
    for i in range(1, n + 1):
        if lines[i].startswith("#"):
            raise ParseError(f"label line before table complete at line {i + 1}")
        try:
            row = [int(tok) for tok in lines[i].split()]
        except ValueError as exc:
            raise ParseError(f"non-integer entry in table row {i - 1}") from exc
        if len(row) != n:
            raise ParseError(f"table row {i - 1} has {len(row)} entries, expected {n}")
        table.append(row)
    labels: Optional[list[str]] = None
    for line in lines[n + 1 :]:
        if not line.startswith("#"):
            raise ParseError(f"unexpected trailing line {line!r}")
        parts = line[1:].split(None, 1)
        if len(parts) != 2:
            raise ParseError(f"bad label line {line!r}")
        try:
            idx = int(parts[0])
        except ValueError as exc:
            raise ParseError(f"bad label index in {line!r}") from exc
        if not 0 <= idx < n:
            raise ParseError(f"label index {idx} out of range")
        if labels is None:
            labels = [str(i) for i in range(n)]
        labels[idx] = parts[1]
    return FiniteGroup(table, labels=labels, name="table-group", cap=cap)


# ---------------------------------------------------------------------------
# Subgroup machinery


def closure_mask(group: FiniteGroup, generators: Iterable[int]) -> int:
    """Bitmask of the subgroup generated by the given element indices.

    A generator already inside the subgroup built so far is skipped; the
    others are kept, and each new one re-closes the subgroup under right
    multiplication by the kept generators alone.  In a finite group that is
    enough: the closure of {1} under x -> x*g is <g>, because g^-1 is the
    power g^(ord(g)-1), so no inverses are needed.  Members already closed
    under the earlier generators need only the new one; the elements it
    reaches need all of them.
    """
    table = group.table
    members = 1 << IDENTITY
    elements = [IDENTITY]
    kept: list[int] = []
    for g in generators:
        if members >> g & 1:
            continue
        kept.append(g)
        stack = [y for y in (table[x][g] for x in elements) if not members >> y & 1]
        for y in stack:
            members |= 1 << y
        elements.extend(stack)
        while stack:
            row = table[stack.pop()]
            for h in kept:
                y = row[h]
                bit = 1 << y
                if not members & bit:
                    members |= bit
                    elements.append(y)
                    stack.append(y)
    return members


def generated_subgroup(group: FiniteGroup, subset: GroupSubset) -> GroupSubset:
    """The subgroup generated by a nonempty subset."""
    require_same_group(group, subset)
    if not subset:
        raise PreconditionError("cannot generate a subgroup from the empty set")
    return GroupSubset(group, closure_mask(group, subset.indices()))


def _subgroup_sort_key(mask: int) -> tuple[int, tuple[int, ...]]:
    return (mask.bit_count(), indices_tuple(mask))


def enumerate_subgroups(group: FiniteGroup) -> list[GroupSubset]:
    """All subgroups, ordered by (size, lexicographic membership).

    Works by closing single-generator extensions of already-found subgroups,
    starting at the trivial subgroup.  A Lagrange argument skips closures
    whose result is forced to be the whole group: the extension's order
    exceeds |H|, divides |G| and is a multiple of lcm(|H|, ord(g)), so
    <H, g> = G when |G| is the only such number.  The test depends only on
    (|H|, ord(g)), so it is decided once per pair.
    """
    if group._subgroups is not None:
        return [GroupSubset(group, m) for m in group._subgroups]
    n = group.order
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    orders = [group.element_order(g) for g in range(n)]
    forcing: dict[int, set[int]] = {}  # |H| -> the ord(g) that force <H, g> = G
    full = (1 << n) - 1
    trivial = 1 << IDENTITY
    found: dict[int, tuple[int, ...]] = {trivial: ()}
    work: deque[int] = deque([trivial])
    while work:
        h = work.popleft()
        gens = found[h]
        hsize = h.bit_count()
        if hsize not in forcing:
            forcing[hsize] = {
                order
                for order in set(orders)
                if [d for d in divisors if d > hsize and d % math.lcm(hsize, order) == 0] == [n]
            }
        forced = forcing[hsize]
        for g in range(1, n):
            if h >> g & 1:
                continue
            if orders[g] in forced:
                m = full
            else:
                m = closure_mask(group, gens + (g,))
            if m not in found:
                found[m] = gens + (g,)
                work.append(m)
    group._subgroups = tuple(sorted(found, key=_subgroup_sort_key))
    return [GroupSubset(group, m) for m in group._subgroups]


def _require_subgroup(group: FiniteGroup, subgroup: GroupSubset) -> None:
    require_same_group(group, subgroup)
    if not subgroup.is_subgroup():
        raise PreconditionError(f"{{{subgroup.to_literal()}}} is not a subgroup")


def right_coset_mask(group: FiniteGroup, hmask: int, x: int) -> int:
    """Bitmask of the right coset H*x."""
    col = group.column(x)
    return permute_mask(hmask, col)


def double_coset_mask(group: FiniteGroup, hmask: int, a: int) -> int:
    """Bitmask of H*a*H."""
    return product_mask(group, right_coset_mask(group, hmask, a), hmask)


def double_coset_pairs(
    group: FiniteGroup, size: Optional[int] = None
) -> Iterator[tuple[GroupSubset, int, int]]:
    """Lazily yield (H, a, mask of H u Ha) for every a outside H with |HaH| = |H|^2.

    Subgroups come in :func:`enumerate_subgroups` order and a ascending.
    Without ``size`` every H with 2 <= |H| and |H|^2 <= |G| is tried; with
    it, exactly the subgroups of that order (size 1 included).  Nothing is
    cached: on large groups almost every a qualifies.
    """
    n = group.order
    for h in enumerate_subgroups(group):
        hsize = len(h)
        if size is None:
            if hsize < 2 or hsize * hsize > n:
                continue
        elif hsize != size:
            continue
        for a in range(1, n):
            if h.mask >> a & 1:
                continue
            if double_coset_mask(group, h.mask, a).bit_count() == hsize * hsize:
                yield h, a, h.mask | right_coset_mask(group, h.mask, a)


def right_coset_decomposition(
    group: FiniteGroup, subset: GroupSubset, subgroup: GroupSubset
) -> list[GroupSubset]:
    """Partition X into its nonempty slices X ∩ Hx, ordered by smallest element."""
    require_same_group(group, subset)
    _require_subgroup(group, subgroup)
    parts = []
    remaining = subset.mask
    while remaining:
        x = (remaining & -remaining).bit_length() - 1
        coset = right_coset_mask(group, subgroup.mask, x)
        parts.append(GroupSubset(group, subset.mask & coset))
        remaining &= ~coset
    return parts


def restrict_to_subgroup(
    group: FiniteGroup, subgroup: GroupSubset
) -> tuple[FiniteGroup, list[int]]:
    """A standalone group on the subgroup's elements, plus the index map.

    Entry i of the returned list is the ambient index of the new element i;
    the subgroup's smallest element (the identity) maps to index 0.
    """
    _require_subgroup(group, subgroup)
    elems = list(subgroup.indices())
    pos = {e: i for i, e in enumerate(elems)}
    table = [[pos[group.table[a][b]] for b in elems] for a in elems]
    labels = [group.label(e) for e in elems] if group.labels else None
    sub = FiniteGroup(table, labels=labels, name=f"{group.name}|sub{len(elems)}")
    return sub, elems


# ---------------------------------------------------------------------------
# Automorphisms


def automorphism_generators(group: FiniteGroup) -> list[tuple[int, ...]]:
    """A few automorphisms that generate Aut(G), each as the tuple of images.

    An automorphism is fixed by its images of the generators
    g_1, ..., g_r of :func:`_light_generators`, and an image keeps the
    element order.  The search runs down the chain Aut = A_0 >= ... >= A_r = 1,
    where A_i fixes g_1, ..., g_i, from the bottom up: at level i it keeps,
    for each image of g_i that the automorphisms kept so far do not reach,
    one automorphism of A_(i-1) giving it.  The kept ones then reach the
    whole A_(i-1)-orbit of g_i, and they generate A_i by induction, so they
    generate A_(i-1) by orbit-stabilizer.
    """
    table = group.table
    n = group.order
    gens = _light_generators(n, group.column)
    candidates = [
        [x for x in range(n) if group.element_order(x) == group.element_order(g)] for g in gens
    ]

    def extension(images: list[int]) -> Optional[list[int]]:
        # The map g_i -> images[i] extended along the Cayley graph of
        # <g_1, ..., g_k>, or None unless it is an injective homomorphism:
        # phi(x g_i) = phi(x) images[i] for every x reached and every i.
        phi = [-1] * n
        phi[IDENTITY] = IDENTITY
        used = 1 << IDENTITY
        stack = [IDENTITY]
        while stack:
            x = stack.pop()
            row, image_row = table[x], table[phi[x]]
            for g, image in zip(gens, images):
                y, z = row[g], image_row[image]
                if phi[y] < 0:
                    if used >> z & 1:
                        return None
                    phi[y] = z
                    used |= 1 << z
                    stack.append(y)
                elif phi[y] != z:
                    return None
        return phi

    def search(images: list[int]) -> Optional[list[int]]:
        phi = extension(images)
        if phi is None or len(images) == len(gens):
            return phi
        for image in candidates[len(images)]:
            found = search(images + [image])
            if found is not None:
                return found
        return None

    def orbit(x: int, perms: list[list[int]]) -> set[int]:
        reached = {x}
        stack = [x]
        while stack:
            y = stack.pop()
            for perm in perms:
                if perm[y] not in reached:
                    reached.add(perm[y])
                    stack.append(perm[y])
        return reached

    kept: list[list[int]] = []
    for i in reversed(range(len(gens))):
        reached = orbit(gens[i], kept)
        for image in candidates[i]:
            if image not in reached:
                phi = search(gens[:i] + [image])
                if phi is not None:
                    kept.append(phi)
                    reached = orbit(gens[i], kept)
    return [tuple(phi) for phi in kept]
