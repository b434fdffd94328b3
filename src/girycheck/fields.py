"""Finite Boolean fields of sets at desk scale.

A generated field is represented by its atoms (the signature classes of the
generators) rather than by materializing all 2^k members; membership and
joins reduce to atom bookkeeping.  Universes are ordered tuples of opaque
labels; rational grids and finite measure families both work.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .measures import FinMeasure, measure_eval
from .verdicts import Verdict, check_all

MAX_GENERATORS = 16
DYADIC_DEPTH_CAP = 8
DYADIC_DENOM = 2**DYADIC_DEPTH_CAP


@dataclass(frozen=True)
class SetField:
    universe: tuple
    generators: tuple  # of frozensets
    atoms: tuple  # of frozensets, ordered by first universe occurrence

    @property
    def member_count(self) -> int:
        return 2 ** len(self.atoms)

    def atom_containing(self, x):
        for a in self.atoms:
            if x in a:
                return a
        raise ValueError(f"{x!r} is not in the universe")

    def contains_member(self, S) -> bool:
        S = frozenset(S)
        if not S <= frozenset(self.universe):
            return False
        return all(a <= S or not (a & S) for a in self.atoms)

    def members(self):
        """Every member, as unions of atoms, in binary-counter order."""
        if len(self.atoms) > MAX_GENERATORS:
            raise ValueError("too many atoms to enumerate members")
        for mask in range(2 ** len(self.atoms)):
            out = frozenset()
            for k, a in enumerate(self.atoms):
                if mask >> k & 1:
                    out |= a
            yield out


def _signature_field(universe, generators) -> SetField:
    universe = tuple(universe)
    gens = tuple(frozenset(g) for g in generators)
    uset = frozenset(universe)
    if len(uset) != len(universe):
        raise ValueError("universe has repeated labels")
    for g in gens:
        if not g <= uset:
            raise ValueError("generator escapes the universe")
    seen = {}
    for x in universe:
        sig = tuple(x in g for g in gens)
        seen.setdefault(sig, []).append(x)
    atoms = tuple(frozenset(block) for block in seen.values())
    return SetField(universe, gens, atoms)


def generate_field(universe, generators) -> SetField:
    generators = tuple(generators)
    if len(generators) > MAX_GENERATORS:
        raise ValueError(f"at most {MAX_GENERATORS} generators, got {len(generators)}")
    return _signature_field(universe, generators)


def field_join(a: SetField, b: SetField) -> SetField:
    """Smallest field containing both: close the pooled generators.

    Joins may pool more generators than generate_field accepts directly;
    the signature computation itself has no such limit."""
    if frozenset(a.universe) != frozenset(b.universe):
        raise ValueError("fields live on different universes")
    return _signature_field(a.universe, a.generators + b.generators)


def field_leq(a: SetField, b: SetField) -> bool:
    """Member sets of a are contained in those of b (b's atoms refine a's)."""
    if frozenset(a.universe) != frozenset(b.universe):
        raise ValueError("fields live on different universes")
    return all(any(bat <= aat for aat in a.atoms) for bat in b.atoms)


def same_members(a: SetField, b: SetField) -> bool:
    return field_leq(a, b) and field_leq(b, a)


# ---------------------------------------------------------------------------
# the dyadic ladder on (0, 1]


def dyadic_grid():
    return tuple(Fraction(k, DYADIC_DENOM) for k in range(1, DYADIC_DENOM + 1))


def dyadic_field(n: int) -> SetField:
    """Level-n field on the dyadic grid, generated by the upper tails
    {x > k/2^n} for k = 0 .. 2^n - 1; its atoms are the 2^n half-open cells."""
    if not 0 <= n <= DYADIC_DEPTH_CAP:
        raise ValueError(f"depth must be within 0..{DYADIC_DEPTH_CAP}")
    grid = dyadic_grid()
    gens = [
        frozenset(x for x in grid if x > Fraction(k, 2**n)) for k in range(2**n)
    ]
    return _signature_field(grid, gens)


# ---------------------------------------------------------------------------
# evaluation fields over a finite family of measures


def ev_block(measures, U, depth: int) -> SetField:
    """Field on the measure family pulled back through P -> P(U), using the
    level-`depth` tails {P : P(U) > k/2^depth}."""
    measures = tuple(measures)
    U = frozenset(U)
    gens = [
        frozenset(P for P in measures if measure_eval(P, U) > Fraction(k, 2**depth))
        for k in range(2**depth)
    ]
    return _signature_field(measures, gens)


def ev_field(measures, Us, n: int) -> SetField:
    """Diagonal join: the i-th evaluation set at depth n - i, i < n."""
    measures = tuple(measures)
    Us = list(Us)
    if len(Us) < n:
        raise ValueError(f"need {n} evaluation sets, got {len(Us)}")
    field = _signature_field(measures, [])
    for i in range(n):
        field = field_join(field, ev_block(measures, Us[i], n - i))
    return field


# ---------------------------------------------------------------------------
# measure agreement across a field


def agreement_check(P: FinMeasure, Q: FinMeasure, field: SetField) -> Verdict:
    """Do P and Q agree on every member?  Decided on atoms: additivity makes
    atom agreement equivalent to member agreement.  Note that agreement on
    the generators alone does not decide this; generator families are not
    intersection-closed, so the verdict scans atoms and reports the first
    distinguishing member when one exists."""
    uset = frozenset(field.universe)
    for e, _ in P.atoms + Q.atoms:
        if e not in uset:
            raise ValueError(f"support point {e} escapes the field universe")
    gens_agree = all(
        measure_eval(P, g) == measure_eval(Q, g) for g in field.generators
    )
    note = "generators agree" if gens_agree else "generators already differ"

    def agree(a):
        pv, qv = measure_eval(P, a), measure_eval(Q, a)
        if pv == qv:
            return None
        member = "{" + ", ".join(sorted(str(x) for x in a)) + "}"
        return {"member": member, "P": str(pv), "Q": str(qv)}

    return replace(check_all(field.atoms, agree, exhaustive=True), note=note)
