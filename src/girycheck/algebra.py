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
- on a label carrier of at most DECIDED_LABELS labels, the multiplication
  law and the support condition, over every support: such a carrier's
  combine reads only which atoms are present, so h depends only on the
  support (see _decide_on_supports);
- on a barycentric carrier (spaces.BARYCENTRIC, by exact type), where h is
  the weighted mean, the multiplication law by linearity of expectation and
  the coseparator law because every test map is affine; on a product, the
  multiplication law where every component's law is decided
  (_decided_mult_law); compat under the library's own norms
  (metric_ot.decided_compat);
- on a one-point carrier, the coseparator law, on its one measure.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

from .measures import (
    FinMeasure,
    MetaMeasure,
    _merged_atoms,
    dirac,
    expectation_functional,
    mu,
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
            # the glue point is canonical on its own branch; accept either side
            ok = out.payload[0] in labels or any(
                g.ident is not None and out.payload == (g.src, g.ident) and g.dst in labels
                for g in carrier.gluings
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
                return ext_element(a - g.target)
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
    mult, supp = _decide_on_supports(alg)
    if mult is None:
        mult = _decided_mult_law(space) or verify_mult_law(alg, budget, mult_rng)
    if supp is None:
        supp = support_condition_check(alg, 200, supp_rng)
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


def _decided_mult_law(space) -> Optional[Verdict]:
    """The multiplication law of the space's combination rule, passed by a
    lemma, or None to sample it.

    On a barycentric carrier h(P) = Σ w·x, so h(μQ) = Σ_P q_P·h(P) = h(𝒢h Q)
    by linearity of expectation (the convex spaces are the algebras of the
    finite-distribution monad).  A product's h is its components' h on the
    projected measures, and projection commutes with μ and 𝒢, so its law
    holds where every component's law is decided: a barycentric carrier, a
    product of such, or a label carrier whose fold _decide_on_supports
    passes."""
    carrier = space.carrier
    if type(carrier) in BARYCENTRIC:
        return passed(True, _MEAN_LAW_NOTE)
    if type(carrier) is Product:
        for comp in carrier.components:
            h = user_algebra(comp, _combination_rule(comp))
            law = _decided_mult_law(comp) or _decide_on_supports(h)[0]
            if law is None or not law.ok:
                return None
        return passed(True, _PRODUCT_LAW_NOTE)
    return None


# the most labels on which full_report decides the multiplication law and
# the support condition, over all 2**n - 1 supports; N-min's 32 stay sampled
DECIDED_LABELS = 10


def _is_semilattice(t) -> bool:
    """Is the binary table t idempotent, commutative and associative?"""
    ns = range(len(t))
    return all(t[i][i] == i for i in ns) and all(
        t[i][j] == t[j][i] and t[t[i][j]][k] == t[i][t[j][k]] for i in ns for j in ns for k in ns
    )


def _decide_on_supports(h: AlgebraMap):
    """(multiplication law, support condition) of h, decided on a label
    carrier of at most DECIDED_LABELS labels; None for each verdict left to
    sampling: both elsewhere, the law also where the binary rule is not one
    semilattice table for every p.

    A label carrier's combine reads only which atoms are present, so h(P)
    depends only on supp P, and one uniform measure P_S per support S stands
    for every measure on S.  The support condition holds iff each h(P_S)
    lies in S.  On a semilattice table the law holds iff each h(P_S) is the
    table's fold of S.  The first support to break the fold, taken in order
    of size, gives the meta-measure witness Q = ½·δ(P_{S∖x}) + ½·δ(δₓ), x
    the last label of S: the fold holds on the smaller supports S∖x and
    {fold(S∖x), x}, so h(μQ) = h(P_S) differs from h(𝒢h Q) = fold(S)."""
    space = h.space
    carrier = space.carrier
    if not isinstance(carrier, FiniteDiscrete) or len(carrier.labels) > DECIDED_LABELS:
        return None, None
    c = space.compiled
    sid, elems = space.id, c.elems
    half = Fraction(1, 2)

    def uniform(S):
        return FinMeasure.from_pairs(sid, [(elems[i], Fraction(1, len(S))) for i in S])

    indices = range(len(elems))
    supports = [S for k in range(1, len(elems) + 1) for S in itertools.combinations(indices, k)]
    cases = [(S, h(uniform(S))) for S in supports]
    count = len(cases)

    def lands(case):
        S, out = case
        if c.index[out] in S:
            return None
        return {"P": to_text(uniform(S), space), "h": space.point_str(out)}

    supp = check_all(cases, lands, True, f"decided: h lands in every support ({count})")
    t = c.tables[0]
    if any(other != t for other in c.tables[1:]) or not _is_semilattice(t):
        return None, supp

    def folds(case):
        S, out = case
        if out == elems[functools.reduce(lambda a, b: t[a][b], S)]:
            return None
        Q = MetaMeasure.from_pairs(sid, [(uniform(S[:-1]), half), (dirac(elems[S[-1]]), half)])
        images = FinMeasure.from_pairs(sid, [(h(P), q) for P, q in Q.atoms])
        return {
            "Q": _meta_text(Q, space),
            "flatten_then_h": space.point_str(h(mu(Q))),
            "h_inside_then_h": space.point_str(h(images)),
        }

    note = f"decided: h is the semilattice fold on every support ({count})"
    mult = check_all(cases, folds, True, note)
    return mult, supp


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
