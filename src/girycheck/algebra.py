"""Expectation operators on convex spaces.

On finitely supported measures an algebra is the space's own combination
rule: h(P) combines P's atoms with P's weights through the carrier, so a
barycenter on geometric carriers, the extreme of the support on totally
ordered discrete ones, componentwise on products and branch-resolving on
glued spaces.  build_algebra only decides whether that map is an algebra
(metric compatibility, a total order, its components and arms); spaces
where it is not are rejected with explicit witnesses rather than errors,
and the rejection is as much a result as a constructed operator.

full_report checks a built operator's laws on seeded samples, except where
a lemma decides them:
- on a label carrier (exactly FiniteDiscrete, of any size), whose combine
  ignores the weights and folds the atoms through one binary table, the
  multiplication law where that table is a semilattice (n³ lookups) and
  the support condition where each x·y is x or y (n² lookups)
  (_decided_mult_law, _decided_support_condition);
- on a barycentric carrier (spaces.BARYCENTRIC, by exact type), where h is
  the weighted mean, the multiplication law by linearity of expectation and
  the coseparator law because every test map is affine; on a product, the
  multiplication law where every component's law is decided; compat under
  the library's own norms (metric_ot.decided_compat);
- on a one-point carrier, the coseparator law, on its one measure.
Subclasses of these carriers, and the other carriers, stay sampled.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

from .extvalue import ExtValue
from .measures import (
    FinMeasure,
    MetaMeasure,
    _merged_atoms,
    dirac,
    expectation_functional,
    support,
    to_text,
)
from .metric_ot import ExtMetric, compat_check_2pt, decided_compat, default_metric
from .sampling import _TWENTY_FOURTHS, _draw_meta_atoms, _measure_on_24ths, random_measure
from .spaces import (
    BARYCENTRIC,
    P_GRID,
    AffineMap,
    Box,
    Branched,
    ConvexSpaceSpec,
    Element,
    ExtendedLine,
    FiniteDiscrete,
    Interval,
    Product,
    RINF,
    Simplex,
    char_map,
    compose,
    coseparates,
    discrete_poset,
    enumerate_ideals,
    ext_element,
    as_ext,
    projection,
)
from .verdicts import Verdict, check_all, failed, passed


@dataclass(frozen=True)
class AlgebraMap:
    """A candidate expectation operator: measures in, points out."""

    space: ConvexSpaceSpec
    rule: object
    provenance: str  # geometric-barycenter / discrete-min / discrete-max /
    #                  mixed-product / mixed-semidirect / user-supplied
    # the 2-point compat verdict a geometric operator was built on; a Verdict
    # holds a dict, so it stays out of __eq__ and __hash__
    compat: Optional[Verdict] = field(default=None, compare=False)

    @property
    def space_id(self) -> str:
        return self.space.id

    def __call__(self, P: FinMeasure) -> Element:
        if P.space_id != self.space.id:
            raise ValueError(f"measure on {P.space_id} fed to algebra on {self.space.id}")
        out = self.rule(P)
        if not isinstance(out, Element) or out.space_id != self.space.id:
            raise ValueError(f"algebra rule returned {out!r}")
        return out


@dataclass(frozen=True)
class Rejection:
    """A space with no expectation operator, and why."""

    space_id: str
    reasons: tuple  # ((condition name, Verdict), ...)

    def reason_names(self):
        return tuple(name for name, _ in self.reasons)

    def to_json(self) -> dict:
        return {
            "space": self.space_id,
            "rejected": True,
            "reasons": {name: v.to_json() for name, v in self.reasons},
        }


@dataclass(frozen=True)
class AlgebraReport:
    space_id: str
    provenance: str
    unit_law: Verdict
    mult_law: Verdict
    coseparator_law: Verdict
    support_condition: Optional[Verdict]
    compat: Optional[Verdict]

    @property
    def ok(self) -> bool:
        parts = [self.unit_law, self.mult_law, self.coseparator_law]
        parts += [v for v in (self.support_condition, self.compat) if v is not None]
        return all(v.ok for v in parts)

    def to_json(self) -> dict:
        out = {
            "space": self.space_id,
            "provenance": self.provenance,
            "unit_law": self.unit_law.to_json(),
            "mult_law": self.mult_law.to_json(),
            "coseparator_law": self.coseparator_law.to_json(),
            "overall": "pass" if self.ok else "fail",
        }
        if self.support_condition is not None:
            out["support_condition"] = self.support_condition.to_json()
        if self.compat is not None:
            out["compat"] = self.compat.to_json()
        return out


def user_algebra(space: ConvexSpaceSpec, rule, provenance="user-supplied") -> AlgebraMap:
    return AlgebraMap(space, rule, provenance)


# ---------------------------------------------------------------------------
# construction


def build_algebra(space: ConvexSpaceSpec, metric: ExtMetric = None, budget: int = 500, rng=None):
    """The space's own combination rule as an expectation operator, or a
    Rejection with witnesses when that map is not an algebra."""
    carrier = space.carrier

    def compat():
        resolved = metric if metric is not None else default_metric(space)
        return decided_compat(space, resolved) or compat_check_2pt(space, resolved, budget, rng)

    if isinstance(carrier, FiniteDiscrete):
        poset = discrete_poset(space)
        if not poset.is_total:
            reasons = [("poset-not-total", failed(poset.witness))]
            comp = compat()
            if not comp.ok:
                reasons.append(("compat", comp))
            return Rejection(space.id, tuple(reasons))
        # a totally ordered collapse rule still folds consistently
        provenance = {"max": "discrete-max", "min": "discrete-min"}.get(carrier.rule, "discrete-fold")
        return AlgebraMap(space, _combination_rule(space), provenance)

    if isinstance(carrier, (Interval, Box, Simplex, ExtendedLine)):
        comp = compat()
        if not comp.ok:
            return Rejection(space.id, (("compat", comp),))
        return AlgebraMap(space, _combination_rule(space), "geometric-barycenter", comp)

    if isinstance(carrier, Product):
        parts, provenance = carrier.components, "mixed-product"
    elif isinstance(carrier, Branched):
        poset = discrete_poset(carrier.branch_space)
        if not poset.is_total:
            return Rejection(space.id, (("branch-poset-not-total", failed(poset.witness)),))
        parts, provenance = [comp for _, comp in carrier.components], "mixed-semidirect"
    else:
        raise ValueError(f"no construction for carrier {type(carrier).__name__}")
    for part in parts:
        sub = build_algebra(part, None, budget, rng)
        if isinstance(sub, Rejection):
            reasons = tuple((f"{part.id}:{name}", v) for name, v in sub.reasons)
            return Rejection(space.id, reasons)
    return AlgebraMap(space, _combination_rule(space), provenance)


def _combination_rule(space):
    """h(P) = the carrier's combination of P's atoms with P's weights."""

    def rule(P):
        atoms = P.atoms
        if len(atoms) == 1:
            return atoms[0][0]
        ws = [w for _, w in atoms]
        ps = [e.payload for e, _ in atoms]
        return Element(space.id, space.carrier.combine(ws, ps))

    return rule


# ---------------------------------------------------------------------------
# the two algebra laws


def verify_unit_law(h: AlgebraMap, budget: int = 200, rng=None) -> Verdict:
    """h(dirac(a)) = a, exhaustively on finite carriers."""
    space = h.space
    elems = space.enumerate_elements()
    exhaustive = elems is not None
    if not exhaustive:
        rng = rng or random.Random(11)
        elems = space.landmark_elements()
        elems += [space.sample_element(rng) for _ in range(budget)]

    def fixed(a):
        got = h(dirac(a))
        return None if got == a else {"a": space.point_str(a), "got": space.point_str(got)}

    note = "" if exhaustive else f"landmarks + {budget} samples"
    return check_all(elems, fixed, exhaustive, note)


def _meta_text(Q, space) -> str:
    return "; ".join(f"{q}: {to_text(P, space)}" for P, q in Q.atoms)


def verify_mult_law(h: AlgebraMap, budget: int = 300, rng=None) -> Verdict:
    """h after flattening equals h after applying h inside, on random
    two-level measures.

    A draw stays on ints: inner weights n/24 and outer weights q/24, zero
    q dropped, so the flattened measure merges q*n over 576 and h's outputs
    merge q over 24, positive and summing to 576 and 24 by construction.
    Both sides merge exactly, so the unmerged draw gives the verdict of its
    MetaMeasure, which is built only to print a witness."""
    space = h.space
    sid = space.id
    rng = rng or random.Random(13)

    def commutes(draw):
        drawn = [(atoms, q) for atoms, q in zip(*draw) if q]
        flat = _merged_atoms([(e, q * n) for atoms, q in drawn for e, n in atoms])
        left = h(FinMeasure(sid, tuple((e, Fraction(n, 576)) for e, n in flat)))
        Ps = [_measure_on_24ths(sid, atoms) for atoms, _ in drawn]
        images = _merged_atoms([(h(P), q) for P, (_, q) in zip(Ps, drawn)])
        right = h(_measure_on_24ths(sid, images))
        if left == right:
            return None
        Q = MetaMeasure.from_pairs(sid, [(P, _TWENTY_FOURTHS[q]) for P, (_, q) in zip(Ps, drawn)])
        return {
            "Q": _meta_text(Q, space),
            "flatten_then_h": space.point_str(left),
            "h_inside_then_h": space.point_str(right),
        }

    draws = (_draw_meta_atoms(rng, space, 5, 5) for _ in range(budget))
    return check_all(draws, commutes, note=f"{budget} random meta-measures")


def verify_coseparator_property(h: AlgebraMap, maps, budget: int = 200, rng=None) -> Verdict:
    """m(h(P)) = E_P(m) for every test map m."""
    space = h.space
    rng = rng or random.Random(17)

    def commutes(P):
        a = h(P)
        for m in maps:
            lhs = as_ext(m(a))
            rhs = expectation_functional(P, m)
            if lhs != rhs:
                text = to_text(P, space)
                return {"P": text, "map": m.name, "m_of_h": str(lhs), "expectation": str(rhs)}
        return None

    measures = (random_measure(rng, space, max_atoms=4) for _ in range(budget))
    return check_all(measures, commutes, note=f"{budget} random measures x {len(maps)} maps")


def support_condition_check(h: AlgebraMap, budget: int = 300, rng=None) -> Optional[Verdict]:
    """h(P) must land in Supp(P) along every discrete direction.

    Geometric carriers have no discrete direction; they return None.
    """
    space = h.space
    carrier = space.carrier
    rng = rng or random.Random(19)
    measures = (random_measure(rng, space, max_atoms=4) for _ in range(budget))

    # strays(P, out) is None when out lands in Supp(P) along the carrier's
    # discrete directions, else the witness entries beyond P and h
    if isinstance(carrier, FiniteDiscrete):
        elems = space.enumerate_elements()
        # all two-point measures over the p-grid, then random larger ones
        pairs = (
            FinMeasure.from_pairs(space.id, [(x, p), (y, 1 - p)])
            for i, x in enumerate(elems)
            for y in elems[i + 1 :]
            for p in P_GRID
        )
        measures = itertools.chain(pairs, measures)
        note = "all grid pairs + random measures"

        def strays(P, out):
            return None if out in support(P) else {}

    elif isinstance(carrier, ExtendedLine):
        # the absorbing point is the only discrete direction here
        measures = (P for P in measures if any(e.payload.is_inf for e, _ in P.atoms))
        note = ""  # the count of these cases, filled in below

        def strays(P, out):
            return None if out.payload.is_inf else {}

    elif isinstance(carrier, Product):
        axes = [k for k, comp in enumerate(carrier.components)
                if isinstance(comp.carrier, FiniteDiscrete)]
        if not axes:
            return None
        note = f"{budget} random measures, discrete axes"

        def strays(P, out):
            for k in axes:
                if out.payload[k] not in {e.payload[k] for e, _ in P.atoms}:
                    return {"axis": str(k)}
            return None

    elif isinstance(carrier, Branched):
        note = f"{budget} random measures, branch labels"

        def strays(P, out):
            labels = {e.payload[0] for e, _ in P.atoms}
            # a glued point is written on one arm; accept every arm it lies on
            ok = out.payload[0] in labels or any(
                label in labels and rep == out.payload for (label, _), rep in carrier.glued.items()
            )
            return None if ok else {}

    else:
        return None

    def lands(P):
        out = h(P)
        more = strays(P, out)
        return None if more is None else {"P": to_text(P, space), "h": space.point_str(out), **more}

    verdict = check_all(measures, lands, note=note)
    if isinstance(carrier, ExtendedLine) and verdict.ok:
        return replace(verdict, note=f"{verdict.checked} absorbing-support cases")
    return verdict


# ---------------------------------------------------------------------------
# coseparating test maps per space


def _interval_maps(space):
    lo, hi = space.carrier.lo, space.carrier.hi
    ident = AffineMap(space, RINF, lambda e: ext_element(e.payload), name="coord")
    flip = AffineMap(
        space, RINF, lambda e: ext_element(lo + hi - e.payload), name="reflect"
    )
    return [ident, flip]


def _coordinate_maps(space, dims):
    return [
        AffineMap(
            space, RINF, lambda e, k=k: ext_element(e.payload[k]), name=f"coord{k}"
        )
        for k in range(dims)
    ]


def _height_maps(space):
    carrier = space.carrier
    out = []
    for g in carrier.gluings:
        if g.ident is None:
            continue

        def fn(e, g=g):
            lab, a = e.payload
            if lab == g.dst:
                return ext_element(ExtValue(a) + -g.target)
            return ext_element(0)

        out.append(AffineMap(space, RINF, fn, name=f"height[{g.dst}]"))
    return out


def coseparator_maps(space: ConvexSpaceSpec):
    """Affine test maps into the extended line for the given space."""
    carrier = space.carrier
    if isinstance(carrier, Interval):
        return _interval_maps(space)
    if isinstance(carrier, Box):
        return _coordinate_maps(space, len(carrier.bounds))
    if isinstance(carrier, Simplex):
        return _coordinate_maps(space, carrier.n)
    if isinstance(carrier, ExtendedLine):
        ident = AffineMap(space, RINF, lambda e: ext_element(e.payload), name="coord")
        inf_char = AffineMap(
            space,
            RINF,
            lambda e: ext_element(e.payload) if e.payload.is_inf else ext_element(0),
            name="chi[inf]",
        )
        return [ident, inf_char]
    if isinstance(carrier, FiniteDiscrete):
        return [char_map(space, ideal) for ideal in enumerate_ideals(space)]
    if isinstance(carrier, Product):
        maps = []
        for k, comp in enumerate(carrier.components):
            proj = projection(space, k)
            maps += [compose(m, proj) for m in coseparator_maps(comp)]
        return maps
    if isinstance(carrier, Branched):
        return _height_maps(space)
    raise ValueError(f"no test maps for carrier {type(carrier).__name__}")


# ---------------------------------------------------------------------------
# full per-space verification


def full_report(space: ConvexSpaceSpec, metric: ExtMetric = None, budget: int = 300, rng=None):
    """Build the algebra and run every applicable law; Rejection passes through.

    A law that a lemma decides (see the module docstring) leaves its stream
    unused; every law's seed is still drawn in its place, so the other
    streams and the caller's rng end as when all four laws are sampled.
    """
    metric = metric if metric is not None else default_metric(space)
    rng = rng or random.Random(29)
    alg = build_algebra(space, metric, budget, random.Random(rng.randrange(2**30)))
    if isinstance(alg, Rejection):
        return alg
    if alg.compat is not None:
        # geometric reports reserve one stream for compat, which build_algebra
        # ran above; drawing it keeps the seeds of the law streams below
        rng.randrange(2**30)
    unit_rng, mult_rng, cosep_rng, supp_rng = (
        random.Random(rng.randrange(2**30)) for _ in range(4)
    )
    unit = verify_unit_law(alg, 200, unit_rng)
    mult = _decided_mult_law(space) or verify_mult_law(alg, budget, mult_rng)
    supp = _decided_support_condition(space) or support_condition_check(alg, 200, supp_rng)
    maps = coseparator_maps(space)
    if type(space.carrier) in BARYCENTRIC:
        cosep = passed(True, _AFFINE_MAPS_NOTE.format(len(maps)))
    elif space.is_finite and len(space.enumerate_elements()) == 1:
        # the Dirac measure is the only measure on one point: one draw is all
        cosep = verify_coseparator_property(alg, maps, 1, cosep_rng)
        if cosep.ok:
            cosep = passed(True, f"decided: one point has one measure (1 measure x {len(maps)} maps)")
    else:
        cosep = verify_coseparator_property(alg, maps, 200, cosep_rng)
    return AlgebraReport(space.id, alg.provenance, unit, mult, cosep, supp, alg.compat)


_MEAN_LAW_NOTE = "decided: h is the weighted mean, so h(mu Q) = h(Gh Q) by linearity of expectation"
_AFFINE_MAPS_NOTE = "decided: h is the weighted mean and each of the {} test maps is affine"
_PRODUCT_LAW_NOTE = "decided: h is componentwise and every component's law is decided"
_FOLD_LAW_NOTE = "decided: h is the fold of one semilattice table, so h(mu Q) = h(Gh Q)"
_FOLD_SUPPORT_NOTE = "decided: each x.y is x or y, so the fold h picks an atom of P"


def _is_one_semilattice(tables) -> bool:
    """Are the tables all one table, idempotent, commutative and associative?"""
    t = tables[0]
    ns = range(len(t))
    return all(o == t for o in tables) and all(t[i][i] == i for i in ns) and all(
        t[i][j] == t[j][i] and t[t[i][j]][k] == t[i][t[j][k]] for i in ns for j in ns for k in ns
    )


def _decided_mult_law(space) -> Optional[Verdict]:
    """The multiplication law of the space's combination rule, passed by a
    lemma, or None to sample it.

    On a barycentric carrier h(P) = Σ w·x, so h(μQ) = Σ_P q_P·h(P) = h(𝒢h Q)
    by linearity of expectation (the convex spaces are the algebras of the
    finite-distribution monad).  A label carrier's combine (exactly type
    FiniteDiscrete: a subclass may combine otherwise) ignores the weights
    and folds its atoms through its p = 1/2 table; where every p gives that
    one table and it is a semilattice, the fold of a union is the fold of
    the parts' folds, so h(μQ) = h(𝒢h Q).  A product's h is its
    components' h on the projected measures, and projection commutes with μ
    and 𝒢, so its law holds where every component's law is decided."""
    carrier = space.carrier
    if type(carrier) in BARYCENTRIC:
        return passed(True, _MEAN_LAW_NOTE)
    if type(carrier) is FiniteDiscrete and _is_one_semilattice(space.compiled.tables):
        return passed(True, _FOLD_LAW_NOTE)
    if type(carrier) is Product and all(map(_decided_mult_law, carrier.components)):
        return passed(True, _PRODUCT_LAW_NOTE)
    return None


def _decided_support_condition(space) -> Optional[Verdict]:
    """The support condition on a carrier of exactly type FiniteDiscrete,
    passed where each x·y of its p = 1/2 table is x or y: combine is that
    table's fold over the atoms present, so it then picks one of them.
    None to sample it, as on every other carrier."""
    if type(space.carrier) is FiniteDiscrete:
        t = space.compiled.tables[0]
        if all(k in (i, j) for i, row in enumerate(t) for j, k in enumerate(row)):
            return passed(True, _FOLD_SUPPORT_NOTE)
    return None


# ---------------------------------------------------------------------------
# the three-point counterexample, rebuilt from the general machinery


def counterexample_C(space: ConvexSpaceSpec = None) -> dict:
    """Why the three-point collapse space admits no expectation operator."""
    if space is None:
        from .registry import builtin_registry

        space = builtin_registry().space("C")
    metric = default_metric(space)

    ideals = enumerate_ideals(space)
    maps = [char_map(space, ideal) for ideal in ideals]
    cosep = coseparates(maps, space)
    compat = compat_check_2pt(space, metric)
    poset = discrete_poset(space)

    # the would-be operator: the combine rule applied to each measure's atoms
    candidate = user_algebra(space, _combination_rule(space))
    supp = support_condition_check(candidate, budget=50, rng=random.Random(3))
    rejection = build_algebra(space)

    return {
        "space": space.id,
        "ideals": [
            [space.point_str(e) for e in ideal.member_list()] for ideal in ideals
        ],
        "coseparation": cosep.to_json(),
        "compat": compat.to_json(),
        "support_condition": supp.to_json(),
        "poset": {
            "is_total": poset.is_total,
            "witness": dict(sorted(poset.witness.items())),
        },
        "rejection": rejection.to_json(),
    }
