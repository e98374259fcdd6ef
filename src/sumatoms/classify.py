"""Classification of sets with small two-fold product growth.

Given a finite group G and a subset S (translated so 1 lies in S), a set
with a witness T, |T| >= 2, |TS| <= min(|G|-2, |T|+|S|-1) falls into one of
three structural cases: S is a one-sided geometric progression, some proper
nontrivial subgroup H has |H S| or |H S^-1| at most |H|+|S|-1, or there is a
subgroup H and an element a with |HaH| = |H|^2 whose coset pair A = H u Ha
satisfies |A S^eps| = |A|+|S|-1 = |G|-|A|.  This module decides which case
holds, produces machine-checkable witnesses, and hosts the related
verifiers (coset-cover a.k.a. Mann-type covering, and the two-coset
complement property of the exceptional case).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Union

from .bitset import bit_indices, mask_from_indices, permute_mask
from .errors import PreconditionError
from .groups import (
    IDENTITY,
    FiniteGroup,
    GroupSubset,
    double_coset_mask,
    double_coset_pairs,
    enumerate_subgroups,
    generated_subgroup,
    product_mask,
    require_same_group,
    right_coset_decomposition,
    right_coset_mask,
)
from .sumsets import (
    _separability_witness,
    boundary,
    boundary_witness,
    find_atoms,
    maximal_left_period,
    normalize,
)

HYPOTHESIS_EXACT_CAP = 48
TWO_COSET_EXACT_CAP = 24


class Case(enum.Enum):
    HYPOTHESIS_FAILS = "HYPOTHESIS_FAILS"
    CASE_I = "CASE_I"
    CASE_II = "CASE_II"
    CASE_III = "CASE_III"
    VIOLATION = "VIOLATION"


@dataclass(frozen=True)
class TranscriptEntry:
    """One verified (in)equality: name, both sides evaluated, and the outcome."""

    name: str
    lhs: int
    relation: str
    rhs: int
    passed: bool

    def render(self) -> str:
        status = "pass" if self.passed else "fail"
        return f"{self.name} {self.lhs} {self.relation} {self.rhs} {status}"


_RELATIONS = {
    "==": lambda a, b: a == b,
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "!=": lambda a, b: a != b,
}


def entry(name: str, lhs: int, relation: str, rhs: int) -> TranscriptEntry:
    return TranscriptEntry(name, lhs, relation, rhs, _RELATIONS[relation](lhs, rhs))


@dataclass(frozen=True)
class CaseIWitness:
    side: str  # always "left": gS is the progression (see detect_geometric_progression)
    g: int
    a: int


@dataclass(frozen=True)
class CaseIIWitness:
    subgroup: GroupSubset
    epsilon: int


@dataclass(frozen=True)
class CaseIIIWitness:
    subgroup: GroupSubset
    a: int
    epsilon: int


Witness = Union[CaseIWitness, CaseIIWitness, CaseIIIWitness]


@dataclass(frozen=True)
class ClassificationResult:
    case: Case
    witness: Optional[Witness]
    transcript: tuple[TranscriptEntry, ...]
    normalized: GroupSubset
    translator: int

    @property
    def verified(self) -> bool:
        return all(e.passed for e in self.transcript)


@dataclass(frozen=True)
class HypothesisReport:
    """Decision of the growth hypothesis, with the normalized set.

    ``holds`` is true when the normalized set either fails to generate the
    group (covering case applies trivially) or is 2-separable with second
    isoperimetric number at most |S| - 1.
    """

    holds: bool
    normalized: GroupSubset
    translator: int
    generates: bool
    two_separable: Optional[bool]
    witness: Optional[GroupSubset]


# ---------------------------------------------------------------------------
# Hypothesis


def _proper_subgroups(group: FiniteGroup) -> list[GroupSubset]:
    """The subgroups H with 2 <= |H| < |G|, in enumerate_subgroups order."""
    n = group.order
    return [h for h in enumerate_subgroups(group) if 2 <= len(h) < n]


def _converted_witness(group: FiniteGroup, xmask: int, prod: int) -> int:
    # A low-boundary set for S^-1 yields one for S: take its remainder.
    full = (1 << group.order) - 1
    return full & ~(xmask | prod)


def _structured_boundary_witness(s: GroupSubset, target: int) -> Optional[int]:
    """Cheap witness hunt: pairs, subgroups, then double-coset pairs H u Ha.

    Checks each candidate family against S and then S^-1 (boundaries agree
    up to taking remainders, which converts a witness for one into one for
    the other).  Returns a witness for S or None; incomplete by design.
    """
    group = s.group
    n = group.order
    limit = n - 2
    sides = ((1, s), (-1, s.inverse_set()))
    families = (
        lambda: ((1 << IDENTITY) | (1 << g) for g in range(1, n)),
        lambda: (h.mask for h in _proper_subgroups(group)),
        lambda: (amask for _, _, amask in double_coset_pairs(group)),
    )
    for candidates in families:
        for epsilon, side in sides:
            for xmask in candidates():
                prod = side.product(xmask)
                if prod.bit_count() <= limit and prod.bit_count() - xmask.bit_count() <= target:
                    return xmask if epsilon == 1 else _converted_witness(group, xmask, prod)
    return None


def hypothesis_holds(group: FiniteGroup, s: GroupSubset) -> HypothesisReport:
    """Decide the growth hypothesis for (G, S) after normalization.

    Small groups are decided by the complete search directly; larger ones
    try structured witnesses (pairs, subgroups, double-coset pairs) first
    and fall back to the complete search.
    """
    require_same_group(group, s)
    if len(s) < 2:
        raise PreconditionError(f"need at least 2 elements, got {len(s)}")
    s1, norm = normalize(s)
    if not norm.generates:
        return HypothesisReport(
            holds=True,
            normalized=s1,
            translator=norm.translator,
            generates=False,
            two_separable=None,
            witness=None,
        )
    n = group.order
    target = len(s1) - 1
    witness_mask: Optional[int] = None
    if n > HYPOTHESIS_EXACT_CAP:
        witness_mask = _structured_boundary_witness(s1, target)
    if witness_mask is None:
        witness_mask = boundary_witness(s1, 2, target)
    separable = (
        witness_mask is not None
        or _separability_witness(s1, 2) is not None
    )
    return HypothesisReport(
        holds=witness_mask is not None,
        normalized=s1,
        translator=norm.translator,
        generates=True,
        two_separable=separable,
        witness=GroupSubset(group, witness_mask) if witness_mask is not None else None,
    )


# ---------------------------------------------------------------------------
# Case detectors


def detect_geometric_progression(
    group: FiniteGroup, s: GroupSubset
) -> Optional[CaseIWitness]:
    """First (g, a) making gS equal to {1, a, a^2, ...}, if any.

    Left translates decide both sides: if Sg = {1, a, ..., a^(m-1)}, then
    gS = g(Sg)g^-1 = {1, gag^-1, ...} for the same g, so the scan finds a
    left-hand witness whenever a right-hand one exists.
    """
    require_same_group(group, s)
    if len(s) < 2:
        raise PreconditionError(f"need at least 2 elements, got {len(s)}")
    m = len(s)
    # m distinct powers of a need ord(a) >= m; the identity never qualifies.
    long = mask_from_indices(a for a in range(group.order) if group.element_order(a) >= m)
    if not long:
        return None
    left = s.xs_masks
    # gS contains 1 exactly when g lies in S^-1.
    for g in bit_indices(s.inverse_set().mask):
        for a in bit_indices(left[g] & long):
            if _is_progression(group, left[g], a, m):
                return CaseIWitness(side="left", g=g, a=a)
    return None


def _is_progression(group: FiniteGroup, t: int, a: int, m: int) -> bool:
    # ord(a) >= m keeps 1, a, ..., a^(m-1) distinct, so the m-element set t
    # is that progression exactly when it holds every one of those powers.
    x = IDENTITY
    row = group.table[a]
    for _ in range(m - 1):
        x = row[x]
        if not t >> x & 1:
            return False
    return True


def _subgroup_cover(s: GroupSubset, slack: int) -> Optional[tuple[GroupSubset, int]]:
    """First proper nontrivial H, with eps, such that |H S^eps| <= |H| + |S| - slack.

    S is tried before S^-1 for each H; |H S^-1| = |S H|, so this is also
    the one-sided cover scan "HS before SH".
    """
    bound = len(s) - slack
    sides = ((1, s), (-1, s.inverse_set()))
    for h in _proper_subgroups(s.group):
        for epsilon, side in sides:
            if side.product(h.mask).bit_count() <= len(h) + bound:
                return h, epsilon
    return None


def find_case_ii_subgroup(
    group: FiniteGroup, s: GroupSubset
) -> Optional[CaseIIWitness]:
    """Smallest proper nontrivial subgroup with |H S^eps| <= |H| + |S| - 1."""
    require_same_group(group, s)
    found = _subgroup_cover(s, 1)
    return CaseIIWitness(*found) if found is not None else None


def find_case_iii_witness(
    group: FiniteGroup, s: GroupSubset
) -> Optional[CaseIIIWitness]:
    """First (H, a, eps) with |HaH| = |H|^2 and |A S^eps| = |A|+|S|-1 = |G|-|A|.

    The two equalities force |S| = |G| + 1 - 4|H|, which pins the only
    possible subgroup size, so the scan is gated on it; under the gate the
    two targets coincide for every pair A = H u Ha.
    """
    require_same_group(group, s)
    n = group.order
    ssize = len(s)
    if (n + 1 - ssize) % 4 != 0:
        return None
    hsize_required = (n + 1 - ssize) // 4
    if hsize_required < 1 or hsize_required * hsize_required > n:
        return None
    sides = ((1, s), (-1, s.inverse_set()))
    for h, a, amask in double_coset_pairs(group, hsize_required):
        for epsilon, side in sides:
            if side.product(amask).bit_count() == n - amask.bit_count():
                return CaseIIIWitness(subgroup=h, a=a, epsilon=epsilon)
    return None


# ---------------------------------------------------------------------------
# Classification


def _eps_mask(group: FiniteGroup, s: GroupSubset, epsilon: int) -> int:
    return s.mask if epsilon == 1 else permute_mask(s.mask, group.inverse)


def _verify_case_i(
    group: FiniteGroup, s: GroupSubset, w: CaseIWitness
) -> list[TranscriptEntry]:
    t = permute_mask(s.mask, group.table[w.g])
    powers = 1 << IDENTITY
    x = IDENTITY
    for _ in range(len(s) - 1):
        x = group.table[w.a][x]
        powers |= 1 << x
    return [
        entry("progression_power_count", powers.bit_count(), "==", len(s)),
        entry("progression_translate_difference", (t ^ powers).bit_count(), "==", 0),
    ]


def _verify_case_ii(
    group: FiniteGroup, s: GroupSubset, w: CaseIIWitness
) -> list[TranscriptEntry]:
    smask = _eps_mask(group, s, w.epsilon)
    prod = product_mask(group, w.subgroup.mask, smask)
    return [
        entry("subgroup_nontrivial", len(w.subgroup), ">", 1),
        entry("subgroup_proper", len(w.subgroup), "<", group.order),
        entry("cover_growth", prod.bit_count(), "<=", len(w.subgroup) + len(s) - 1),
    ]


def _verify_case_iii(
    group: FiniteGroup, s: GroupSubset, w: CaseIIIWitness
) -> list[TranscriptEntry]:
    hmask = w.subgroup.mask
    hsize = len(w.subgroup)
    dc = double_coset_mask(group, hmask, w.a)
    ha = right_coset_mask(group, hmask, w.a)
    amask = hmask | ha
    smask = _eps_mask(group, s, w.epsilon)
    prod = product_mask(group, amask, smask)
    conj = permute_mask(
        permute_mask(hmask, group.table[group.inverse[w.a]]), group.column(w.a)
    )
    # The product is left-H-stable, so its complement (of size |A|) splits
    # into full right cosets: the extremal growth leaves exactly two.
    comp = GroupSubset(group, ~prod & ((1 << group.order) - 1))
    parts = right_coset_decomposition(group, comp, w.subgroup)
    return [
        entry("double_coset_square", dc.bit_count(), "==", hsize * hsize),
        entry("pair_is_two_cosets", amask.bit_count(), "==", 2 * hsize),
        entry("pair_growth", prod.bit_count(), "==", amask.bit_count() + len(s) - 1),
        entry("pair_complement", prod.bit_count(), "==", group.order - amask.bit_count()),
        entry("conjugate_meets_trivially", (hmask & conj).bit_count(), "==", 1),
        entry("uncovered_coset_count", len(parts), "==", 2),
        entry(
            "uncovered_cosets_full",
            sum(1 for p in parts if len(p) == hsize),
            "==",
            len(parts),
        ),
    ]


def classify(group: FiniteGroup, s: GroupSubset) -> ClassificationResult:
    """Decide which structural case holds for (G, S).

    The set is first right-translated to contain the identity; all reported
    witnesses refer to the translated set.  A non-generating set is routed
    directly to the covering case with H the generated subgroup.  If the
    hypothesis holds and no case fits, the result is VIOLATION, which
    falsifies either this implementation or the classification itself.
    """
    require_same_group(group, s)
    hyp = hypothesis_holds(group, s)
    s1 = hyp.normalized
    if not hyp.holds:
        transcript = [
            entry("hypothesis_two_separable", int(bool(hyp.two_separable)), "==", 1)
        ]
        return ClassificationResult(
            Case.HYPOTHESIS_FAILS, None, tuple(transcript), s1, hyp.translator
        )
    if not hyp.generates:
        h = generated_subgroup(group, s1)
        witness = CaseIIWitness(subgroup=h, epsilon=1)
        transcript = _verify_case_ii(group, s1, witness)
        return ClassificationResult(
            Case.CASE_II, witness, tuple(transcript), s1, hyp.translator
        )
    w1 = detect_geometric_progression(group, s1)
    if w1 is not None:
        return ClassificationResult(
            Case.CASE_I, w1, tuple(_verify_case_i(group, s1, w1)), s1, hyp.translator
        )
    w2 = find_case_ii_subgroup(group, s1)
    if w2 is not None:
        return ClassificationResult(
            Case.CASE_II, w2, tuple(_verify_case_ii(group, s1, w2)), s1, hyp.translator
        )
    w3 = find_case_iii_witness(group, s1)
    if w3 is not None:
        return ClassificationResult(
            Case.CASE_III, w3, tuple(_verify_case_iii(group, s1, w3)), s1, hyp.translator
        )
    transcript = [
        entry("progression_found", 0, "==", 1),
        entry("cover_subgroup_found", 0, "==", 1),
        entry("double_coset_pair_found", 0, "==", 1),
    ]
    if hyp.witness is not None:
        transcript.insert(
            0,
            entry(
                "hypothesis_boundary", len(boundary(s1, hyp.witness)), "<=", len(s1) - 1
            ),
        )
    return ClassificationResult(
        Case.VIOLATION, None, tuple(transcript), s1, hyp.translator
    )


@dataclass(frozen=True)
class CorollaryVerdict:
    applicable: bool
    passed: bool
    transcript: tuple[TranscriptEntry, ...]


def check_corollary_bound(
    group: FiniteGroup, s: GroupSubset, result: ClassificationResult
) -> CorollaryVerdict:
    """Check that double-coset-pair outcomes force |S| > |G| - 4*sqrt(|G|).

    Vacuous for the other cases.  Uses exact integer arithmetic:
    |S| > n - 4*sqrt(n) iff (n - |S|)^2 < 16n (sizes never exceed n).
    """
    require_same_group(group, s)
    if result.case is not Case.CASE_III:
        return CorollaryVerdict(applicable=False, passed=True, transcript=())
    n = group.order
    ssize = len(result.normalized)
    hsize = len(result.witness.subgroup)
    gap = n - ssize
    transcript = (
        entry("size_gap_squared", gap * gap, "<", 16 * n),
        entry("size_formula", ssize, "==", n + 1 - 4 * hsize),
    )
    return CorollaryVerdict(
        applicable=True,
        passed=all(e.passed for e in transcript),
        transcript=transcript,
    )


# ---------------------------------------------------------------------------
# Coset-cover (Mann-type) verifier


@dataclass(frozen=True)
class MannVerdict:
    """Covering hypothesis decision plus the promised subgroup witness."""

    hypothesis: bool
    witness_subgroup: Optional[GroupSubset]
    consistent: bool
    normalized: GroupSubset
    translator: int


def verify_mann(group: FiniteGroup, s: GroupSubset) -> MannVerdict:
    """Decide the covering hypothesis and confirm the subgroup conclusion.

    Hypothesis: some T has TS != G and |TS| <= |T| + |S| - 2; decided via
    the first isoperimetric number of the normalized set (the non-generating
    case is settled by the generated subgroup directly).  When it holds, a
    proper subgroup must cover S from one side within |H| + |S| - 2.
    """
    require_same_group(group, s)
    if not s:
        raise PreconditionError("cannot analyze the empty set")
    s1, norm = normalize(s)
    n = group.order
    if len(s1) == n:
        hypothesis = False
    elif not norm.generates:
        hypothesis = len(s1) >= 2
    else:
        hypothesis = (
            boundary_witness(s1, 1, len(s1) - 2) is not None
        )
    found = _subgroup_cover(s1, 2) if hypothesis else None
    return MannVerdict(
        hypothesis=hypothesis,
        witness_subgroup=found[0] if found else None,
        consistent=(not hypothesis) or found is not None,
        normalized=s1,
        translator=norm.translator,
    )


# ---------------------------------------------------------------------------
# Two-coset complement verifier


@dataclass(frozen=True)
class PreconditionStatus:
    name: str
    status: str  # "verified" | "failed" | "assumed"
    detail: str


@dataclass(frozen=True)
class TwoCosetVerdict:
    """Precondition statuses and the two-coset complement conclusion."""

    applicable: bool
    holds: Optional[bool]
    preconditions: tuple[PreconditionStatus, ...]
    transcript: tuple[TranscriptEntry, ...]
    normalized: GroupSubset


def _two_coset_conclusion(s: GroupSubset, hmask: int, amask: int) -> list[TranscriptEntry]:
    group = s.group
    hs = s.product(hmask)
    as_ = s.product(amask)
    full = (1 << group.order) - 1
    comp = full & ~hs
    parts = right_coset_decomposition(
        group, GroupSubset(group, comp), GroupSubset(group, hmask)
    )
    hsize = hmask.bit_count()
    out = [
        entry("hs_equals_as", (hs ^ as_).bit_count(), "==", 0),
        entry("complement_coset_count", len(parts), "==", 2),
        entry("complement_size", comp.bit_count(), "==", 2 * hsize),
    ]
    out.extend(
        entry(f"complement_part_{i}_full_coset", len(p), "==", hsize)
        for i, p in enumerate(parts)
    )
    return out


def _two_coset_fragment_scan(s: GroupSubset) -> Optional[tuple[int, int]]:
    """A subgroup H (|H| >= 2) and a with |HaH| = |H|^2 making H u Ha a
    minimum-boundary candidate: boundary exactly |S| - 1 and remainder >= 2."""
    n = s.group.order
    target = len(s) - 1
    for h, a, amask in double_coset_pairs(s.group):
        prod = s.product(amask)
        if (
            prod.bit_count() - amask.bit_count() == target
            and n - prod.bit_count() >= 2
        ):
            return h.mask, a
    return None


def verify_two_coset_theorem(group: FiniteGroup, s: GroupSubset) -> TwoCosetVerdict:
    """Check the two-coset complement property of the exceptional case.

    Preconditions: S (normalized) generates, |S| >= 3, both isoperimetric
    numbers equal |S| - 1, |G| >= 2*alpha_2 + kappa_2, no 2-fragment is a
    subgroup, and some 2-atom is a union H u Ha of two right cosets.
    Above order ``TWO_COSET_EXACT_CAP`` the atom computation is replaced by
    certificates: the coset-cover scan bounds kappa_1 from below, an
    explicit fragment bounds kappa_2 from above, and minimality of the
    two-coset fragment is recorded as assumed rather than verified.
    Conclusion (always computed exactly): the complement of HS is exactly
    two right H-cosets, and HS = AS.
    """
    require_same_group(group, s)
    s1, norm = normalize(s)
    n = group.order
    pre: list[PreconditionStatus] = []
    failed = False

    def status(name: str, ok: bool, detail: str) -> None:
        nonlocal failed
        pre.append(PreconditionStatus(name, "verified" if ok else "failed", detail))
        failed = failed or not ok

    status("generates", norm.generates, "normalized set generates the group")
    status("set_size", len(s1) >= 3, f"|S| = {len(s1)}")
    if failed:
        return TwoCosetVerdict(False, None, tuple(pre), (), s1)

    target = len(s1) - 1
    candidates: list[tuple[int, int]] = []
    if n <= TWO_COSET_EXACT_CAP:
        try:
            rep2 = find_atoms(s1, 2)
        except PreconditionError:
            status("two_separable", False, "set is not 2-separable")
            return TwoCosetVerdict(False, None, tuple(pre), (), s1)
        kappa2 = rep2.kappa
        status("kappa2_equals_size_minus_1", kappa2 == target, f"kappa_2 = {kappa2}")
        kappa1_wit = boundary_witness(s1, 1, target - 1)
        status(
            "kappa1_equals_size_minus_1",
            kappa1_wit is None,
            "no admissible set has boundary below |S| - 1",
        )
        status(
            "room_for_two_atoms",
            n >= 2 * rep2.alpha + kappa2,
            f"|G| = {n}, alpha_2 = {rep2.alpha}, kappa_2 = {kappa2}",
        )
        frag_subgroup = _subgroup_fragment(s1, kappa2)
        status(
            "no_subgroup_fragment",
            frag_subgroup is None,
            "no subgroup achieves the minimum boundary",
        )
        for atom in rep2.atoms:
            h = maximal_left_period(atom)
            if len(h) >= 2 and len(atom) == 2 * len(h):
                rest = atom.mask & ~h.mask
                a = (rest & -rest).bit_length() - 1
                if right_coset_mask(group, h.mask, a) == rest:
                    candidates.append((h.mask, a))
        status(
            "two_coset_atom",
            bool(candidates),
            f"{len(candidates)} atom(s) of the form H u Ha",
        )
    else:
        found = _two_coset_fragment_scan(s1)
        status(
            "two_coset_fragment",
            found is not None,
            "a double-coset pair achieves boundary |S| - 1",
        )
        cover = _subgroup_cover(s1, 2)
        status(
            "kappa1_certificate",
            cover is None,
            "no one-sided subgroup cover within |H| + |S| - 2, so kappa_1 >= |S| - 1",
        )
        if found is not None:
            frag_subgroup = _subgroup_fragment(s1, target)
            status(
                "no_subgroup_fragment",
                frag_subgroup is None,
                "no subgroup achieves the minimum boundary",
            )
            hmask, a = found
            asize = 2 * hmask.bit_count()
            status(
                "room_for_two_atoms",
                n >= 2 * asize + target,
                f"|G| = {n}, candidate size {asize}, boundary {target}",
            )
            pair = _pair_boundary_min(s1)
            status(
                "no_two_element_fragment",
                pair is None or pair > target,
                "every pair has boundary above |S| - 1",
            )
            pre.append(
                PreconditionStatus(
                    "atom_minimality",
                    "assumed",
                    f"sizes 3..{asize - 1} not searched at order {n}",
                )
            )
            candidates.append((hmask, a))
    if failed or not candidates:
        return TwoCosetVerdict(False, None, tuple(pre), (), s1)
    transcript: list[TranscriptEntry] = []
    for hmask, a in candidates:
        amask = hmask | right_coset_mask(group, hmask, a)
        transcript.extend(_two_coset_conclusion(s1, hmask, amask))
    return TwoCosetVerdict(
        applicable=True,
        holds=all(e.passed for e in transcript),
        preconditions=tuple(pre),
        transcript=tuple(transcript),
        normalized=s1,
    )


def _subgroup_fragment(s: GroupSubset, kappa: int) -> Optional[int]:
    n = s.group.order
    for h in _proper_subgroups(s.group):
        prod = s.product(h.mask)
        if prod.bit_count() <= n - 2 and prod.bit_count() - len(h) == kappa:
            return h.mask
    return None


def _pair_boundary_min(s: GroupSubset) -> Optional[int]:
    n = s.group.order
    sizes = (s.product(1 << IDENTITY | 1 << g).bit_count() for g in range(1, n))
    return min((size - 2 for size in sizes if size <= n - 2), default=None)
