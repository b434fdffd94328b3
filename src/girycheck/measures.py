"""Finitely supported probability measures with exact rational weights.

FinMeasure is the one-level measure; MetaMeasure is a measure over measures.
Together with dirac / pushforward / mu they realize the finite-support
probability functor, and all identities tested downstream (unit and
associativity of flattening, naturality, linearity of expectation) are
checked with exact Fraction arithmetic.

A measure is built in one pass: the total mass is checked on integers over
the least common denominator, the atoms are sorted on their payloads' own
comparison, and equal neighbours merge, so no atom is hashed.  Every
carrier makes payloads of one shape, so that comparison is a total order:
rationals and finite extended values by value, then inf, strs as strs,
tuples position by position.  Payloads that do not compare are refused.
Flattening and expectations run on ints over a common denominator and
build one Fraction per result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .extvalue import INF, ExtValue
from .spaces import (
    AffineMap,
    ConvexSpaceSpec,
    Element,
    _as_fraction,
    _check_unit_mass,
    _split_top,
    _weighted_sum,
    as_ext,
)


def _atom_payload(atom):
    return atom[0].payload


def _sort_atoms(pairs: list) -> None:
    """Sort (Element, weight) pairs stably on the Elements' payloads, the
    canonical order.  Payloads that do not compare are refused."""
    try:
        pairs.sort(key=_atom_payload)
    except TypeError as exc:
        raise ValueError("atom payloads do not compare among themselves") from exc


def _merged_atoms(pairs: list) -> tuple:
    """The (Element, weight) pairs sorted on their payloads with ==
    neighbours merged: the first Element is kept and the weights are added
    in input order.  No atom is hashed."""
    if len(pairs) == 1:
        return tuple(pairs)
    _sort_atoms(pairs)
    atoms = []
    last = None
    for e, w in pairs:
        if last is not None and e.payload == last.payload:
            atoms[-1] = (last, atoms[-1][1] + w)
        else:
            atoms.append((e, w))
            last = e
    return tuple(atoms)


@dataclass(frozen=True)
class FinMeasure:
    """Atoms are deduplicated, positively weighted, sorted canonically, and
    the weights sum to exactly one."""

    space_id: str
    atoms: tuple  # ((Element, Fraction), ...)

    @classmethod
    def from_pairs(cls, space_id: str, pairs) -> "FinMeasure":
        kept = []
        for e, w in pairs:
            w = _as_fraction(w)
            if w.numerator < 0:
                raise ValueError(f"negative weight {w}")
            if not w:
                continue
            if not isinstance(e, Element) or e.space_id != space_id:
                raise ValueError(f"atom {e!r} does not live in {space_id}")
            kept.append((e, w))
        if not kept:
            raise ValueError("measure with no mass")
        _check_unit_mass(w for _, w in kept)
        return cls(space_id, _merged_atoms(kept))

    def support(self):
        return tuple(e for e, _ in self.atoms)

    def mass(self, e: Element) -> Fraction:
        for a, w in self.atoms:
            if a == e:
                return w
        return Fraction(0)

    def sort_key(self):
        return self.space_id, tuple((e.payload, w) for e, w in self.atoms)


@dataclass(frozen=True)
class MetaMeasure:
    """A measure whose atoms are FinMeasures on a common base space."""

    space_id: str
    atoms: tuple  # ((FinMeasure, Fraction), ...)

    @classmethod
    def from_pairs(cls, space_id: str, pairs) -> "MetaMeasure":
        merged = {}
        for P, w in pairs:
            w = _as_fraction(w)
            if w.numerator < 0:
                raise ValueError(f"negative weight {w}")
            if not w:
                continue
            if not isinstance(P, FinMeasure) or P.space_id != space_id:
                raise ValueError(f"inner measure on {getattr(P, 'space_id', '?')}, expected {space_id}")
            old = merged.get(P)
            merged[P] = w if old is None else old + w
        if not merged:
            raise ValueError("meta-measure with no mass")
        _check_unit_mass(merged.values())
        atoms = tuple(sorted(merged.items(), key=lambda kv: kv[0].sort_key()))
        return cls(space_id, atoms)

    def support(self):
        return tuple(P for P, _ in self.atoms)


def dirac(x: Element) -> FinMeasure:
    return FinMeasure.from_pairs(x.space_id, [(x, Fraction(1))])


def dirac_meta(P: FinMeasure) -> MetaMeasure:
    return MetaMeasure.from_pairs(P.space_id, [(P, Fraction(1))])


def pushforward(f, P: FinMeasure) -> FinMeasure:
    """Image measure; colliding images merge exactly."""
    outs = []
    for e, w in P.atoms:
        y = f(e)
        if not isinstance(y, Element):
            raise ValueError(f"pushforward map returned {y!r}")
        outs.append((y, w))
    target = f.codomain.id if isinstance(f, AffineMap) else outs[0][0].space_id
    return FinMeasure.from_pairs(target, outs)


def mu(Q: MetaMeasure) -> FinMeasure:
    """Flatten a measure over measures: weights multiply and atoms merge."""
    return _flatten(Q.space_id, Q.atoms)


def _flatten(space_id: str, outer) -> FinMeasure:
    """The measure sum_j q_j * P_j for (FinMeasure P_j, weight q_j) pairs,
    merged or not, with from_pairs' checks on each product weight.

    Every product q*w is an int numerator over the common denominator of
    all of them, atoms merge on those ints, and each distinct atom gets
    one Fraction."""
    terms = []
    den = 1
    for P, q in outer:
        for e, w in P.atoms:
            n, d = q.numerator * w.numerator, q.denominator * w.denominator
            if n < 0:
                raise ValueError(f"negative weight {Fraction(n, d)}")
            if not n:
                continue
            if not isinstance(e, Element) or e.space_id != space_id:
                raise ValueError(f"atom {e!r} does not live in {space_id}")
            if den % d:
                den = den // math.gcd(den, d) * d
            terms.append((e, n, d))
    if not terms:
        raise ValueError("measure with no mass")
    scaled = [(e, n * (den // d)) for e, n, d in terms]
    total = sum(n for _, n in scaled)
    if total != den:
        raise ValueError(f"total mass {Fraction(total, den)}, expected 1")
    return FinMeasure(space_id, tuple((e, Fraction(n, den)) for e, n in _merged_atoms(scaled)))


def convex_combine_measures(weights, measures) -> FinMeasure:
    """Pointwise mixture sum_i w_i * P_i, independent of mu for cross-checks."""
    ws = [_as_fraction(w) for w in weights]
    Ps = list(measures)
    if len(ws) != len(Ps):
        raise ValueError("weights and measures differ in length")
    message = "weights must be nonnegative and sum to 1"
    if any(w.numerator < 0 for w in ws):
        raise ValueError(message)
    _check_unit_mass(ws, message)
    space_id = Ps[0].space_id
    pairs = []
    for w, P in zip(ws, Ps):
        if not w.numerator:
            continue
        for e, pw in P.atoms:
            pairs.append((e, w * pw))
    return FinMeasure.from_pairs(space_id, pairs)


def mix_meta(weights, metas) -> MetaMeasure:
    """Mixture of meta-measures (the outer flattening of a depth-3 tower)."""
    ws = [_as_fraction(w) for w in weights]
    Qs = list(metas)
    if len(ws) != len(Qs):
        raise ValueError("weights and meta-measures differ in length")
    pairs = []
    for w, Q in zip(ws, Qs):
        for P, q in Q.atoms:
            pairs.append((P, w * q))
    return MetaMeasure.from_pairs(Qs[0].space_id, pairs)


def support(P: FinMeasure):
    return P.support()


def measure_eval(P: FinMeasure, members) -> Fraction:
    """P(U) for a finite set U of elements."""
    members = set(members)
    return sum((w for e, w in P.atoms if e in members), Fraction(0))


def expectation_functional(P: FinMeasure, m) -> ExtValue:
    """E_P(m) = sum_i p_i * m(x_i) with absorbing inf arithmetic: every
    weight is positive, so one infinite value makes the sum inf."""
    values = []
    for e, _ in P.atoms:
        v = m(e)
        values.append(as_ext(v) if isinstance(v, Element) else ExtValue(v))
    if any(v.is_inf for v in values):
        return INF
    return ExtValue(_weighted_sum([w for _, w in P.atoms], [v.value for v in values]))


# ---------------------------------------------------------------------------
# canonical text form: "measure on <space>: <point>:<num>/<den>, ..."


def to_text(P: FinMeasure, space: ConvexSpaceSpec) -> str:
    if space.id != P.space_id:
        raise ValueError("space mismatch")
    parts = [
        f"{space.point_str(e)}:{w.numerator}/{w.denominator}" for e, w in P.atoms
    ]
    return f"measure on {space.id}: " + ", ".join(parts)


def parse_measure(text: str, space: ConvexSpaceSpec) -> FinMeasure:
    text = text.strip()
    head, sep, body = text.partition(":")
    if not sep:
        raise ValueError("expected 'measure on <space>: ...'")
    head_parts = head.split()
    if head_parts[:2] != ["measure", "on"] or len(head_parts) != 3:
        raise ValueError(f"bad measure header {head!r}")
    if head_parts[2] != space.id:
        raise ValueError(f"measure declares space {head_parts[2]!r}, expected {space.id!r}")
    pairs = []
    for chunk in _split_top(body, ","):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError("empty atom entry")
        point_str, sep, weight_str = chunk.rpartition(":")
        if not sep:
            raise ValueError(f"atom {chunk!r} lacks a :weight part")
        if "/" not in weight_str:
            raise ValueError(f"weight {weight_str!r} must be <num>/<den>")
        try:
            pairs.append((space.parse_element(point_str.strip()), Fraction(weight_str)))
        except ZeroDivisionError:
            raise ValueError(f"atom {chunk!r} has a zero denominator") from None
    return FinMeasure.from_pairs(space.id, pairs)
