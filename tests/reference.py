"""One small model of girycheck, written from the definitions, that the
kernel tests compare against: measures at both levels, each carrier's
combination rule and sampler, the seeded draws (the same rng calls in the
same order), the compat scans, is_affine, coseparates, the discrete poset,
the unit and multiplication laws and the path distance on glued arms.  It
uses Fraction and dict merges only, and gives a verdict as its JSON.

From girycheck it imports only the data types it builds and compares,
never a kernel it is the oracle for; tests/test_stdlib_only.py holds the
allow-list.  A kernel test feeds the kernel and the model the same inputs,
a fresh copy of one seeded rng each where they draw, and asserts equal
results and equal rng states afterwards.
"""

import functools
import itertools
import math
import random
from fractions import Fraction

from girycheck.extvalue import INF, ExtValue
from girycheck.measures import FinMeasure, MetaMeasure
from girycheck.spaces import (
    P_GRID, Box, Branched, Element, ExtendedLine, FiniteDiscrete, Interval, Product, Simplex,
)

# points**arity * len(P_GRID) up to which a finite carrier is scanned exhaustively
COMPAT_CAP, AFFINE_CAP = 300_000, 20_000


def as_weight(w) -> Fraction:
    if isinstance(w, float):
        raise ValueError(f"float weight {w!r}; weights must be int or Fraction")
    return w if isinstance(w, Fraction) else Fraction(w)


def payload_key(p):
    """The canonical atom order: rationals (finite extended values among
    them) by value, then inf, then strs, then tuples lexicographically."""
    if isinstance(p, ExtValue):
        return (1, ()) if p.is_inf else (0, p.value)
    if isinstance(p, str):
        return (2, p)
    if isinstance(p, tuple):
        return (3, tuple(payload_key(c) for c in p))
    return (0, Fraction(p))


# ---------------------------------------------------------------------------
# measures


def _merged(pairs, stray, empty) -> dict:
    """Atoms and their summed weights, zero weights dropped and the first of
    equal atoms kept; stray(atom) is the message refusing an atom, or None."""
    merged = {}
    for a, w in pairs:
        w = as_weight(w)
        if w < 0:
            raise ValueError(f"negative weight {w}")
        if not w:
            continue
        if stray(a):
            raise ValueError(stray(a))
        merged[a] = merged.get(a, 0) + w
    if not merged:
        raise ValueError(empty)
    if sum(merged.values()) != 1:
        raise ValueError(f"total mass {sum(merged.values())}, expected 1")
    return merged


def fin_from_pairs(space_id, pairs) -> FinMeasure:
    def stray(e):
        if not (isinstance(e, Element) and e.space_id == space_id):
            return f"atom {e!r} does not live in {space_id}"

    merged = _merged(pairs, stray, "measure with no mass")
    atoms = sorted(merged.items(), key=lambda a: payload_key(a[0].payload))
    return FinMeasure(space_id, tuple(atoms))


def meta_from_pairs(space_id, pairs) -> MetaMeasure:
    def stray(P):
        if not (isinstance(P, FinMeasure) and P.space_id == space_id):
            return f"inner measure on {getattr(P, 'space_id', '?')}, expected {space_id}"

    def key(atom):
        return tuple((payload_key(e.payload), w) for e, w in atom[0].atoms)

    merged = _merged(pairs, stray, "meta-measure with no mass")
    return MetaMeasure(space_id, tuple(sorted(merged.items(), key=key)))


def mu(space_id, outer) -> FinMeasure:
    """sum_j q_j P_j over (FinMeasure P_j, weight q_j) pairs, merged or not."""
    return fin_from_pairs(space_id, [(e, q * w) for P, q in outer for e, w in P.atoms])


def expectation(P, m) -> ExtValue:
    """sum_i p_i m(x_i); every weight is positive, so one inf makes it inf."""
    values = [m(e) for e, _ in P.atoms]
    values = [v.payload if isinstance(v, Element) else ExtValue(v) for v in values]
    if any(v.is_inf for v in values):
        return INF
    return ExtValue(_sum([w for _, w in P.atoms], [v.value for v in values]))


def ext_element(v) -> Element:
    return Element("Rinf", v if isinstance(v, ExtValue) else ExtValue(v))


# ---------------------------------------------------------------------------
# carriers


def _sum(ws, xs) -> Fraction:
    return sum((w * x for w, x in zip(ws, xs)), Fraction(0))


def _lerp64(lo, hi, rng) -> Fraction:
    return lo + (hi - lo) * Fraction(rng.randint(0, 64), 64)


def _arm(carrier, label):
    return dict(carrier.components)[label].carrier


def _arm_point(carrier, label, raw):
    """A glue constant as a point of an arm: extended lines hold ExtValues."""
    return ExtValue(raw) if isinstance(_arm(carrier, label), ExtendedLine) else raw


def _glue_target(carrier, src, dst):
    """What a point of arm src is in arm dst: constant gluings compose to
    the target of the last one on the path src -> dst."""
    target, todo = {src: None}, [src]
    for a in todo:
        for g in carrier.gluings:
            if g.src == a and g.dst not in target:
                target[g.dst] = g.target
                todo.append(g.dst)
    return _arm_point(carrier, dst, target[dst])


def _glue_ends(carrier):
    """The two ends of each gluing with an ident, as payloads of their arms."""
    return [
        ((g.src, _arm_point(carrier, g.src, g.ident)), (g.dst, _arm_point(carrier, g.dst, g.target)))
        for g in carrier.gluings if g.ident is not None
    ]


def _canonical(carrier, p):
    """A glued point is written on a source arm: of the points identified
    with it, the first in gluing order (src before dst) that no gluing
    targets."""
    ends = _glue_ends(carrier)
    same = [p]
    for q in same:
        same += [r for pair in ends if q in pair for r in pair if r not in same]
    targets = {dst for _, dst in ends}
    return next((q for pair in ends for q in pair if q in same and q not in targets), p)


def _line_distance(a, b):
    """|a - b| on an interval or an extended line: inf from a finite point to inf."""
    a, b = ExtValue(a), ExtValue(b)
    if a.is_inf or b.is_inf:
        return ExtValue(0) if a == b else INF
    return ExtValue(abs(a.value - b.value))


def tree_distance(carrier, x, y):
    """The path distance between payloads x and y of a branched carrier of
    interval and extended-line arms, found over the glue points alone: the
    shortest path through x, y and the ends of every gluing with an ident,
    where two points of one arm are their line distance apart and the two
    ends of a gluing are 0 apart.  None where no such path joins them."""
    ends = _glue_ends(carrier)
    nodes = [x, y] + [q for pair in ends for q in pair]

    def edge(p, q):
        if p[0] == q[0]:
            return _line_distance(p[1], q[1])
        return ExtValue(0) if (p, q) in ends or (q, p) in ends else None

    dist, changed = {x: ExtValue(0)}, True
    while changed:
        changed = False
        for p, q in itertools.product(nodes, nodes):
            step = edge(p, q) if p in dist else None
            if step is not None and (q not in dist or dist[p] + step < dist[q]):
                dist[q], changed = dist[p] + step, True
    return dist.get(y)


def combine_payloads(carrier, ws, ps):
    """The carrier's combination of payloads ps with positive weights ws."""
    if isinstance(carrier, Interval):
        return _sum(ws, ps)
    if isinstance(carrier, (Box, Simplex)):
        return tuple(_sum(ws, xs) for xs in zip(*ps))
    if isinstance(carrier, ExtendedLine):
        return INF if any(p.is_inf for p in ps) else ExtValue(_sum(ws, [p.value for p in ps]))
    if isinstance(carrier, FiniteDiscrete):
        if carrier.rule == "collapse":
            return ps[0] if all(p == ps[0] for p in ps) else carrier.center
        return (min if carrier.rule == "min" else max)(ps, key=carrier.labels.index)
    if isinstance(carrier, Product):
        parts = zip(carrier.components, zip(*ps))
        return tuple(combine_payloads(c.carrier, ws, xs) for c, xs in parts)
    # the branch rule picks the arm, and the other points enter it through their gluings
    win = combine_payloads(carrier.branch_space.carrier, ws, [label for label, _ in ps])
    moved = [x if label == win else _glue_target(carrier, label, win) for label, x in ps]
    return _canonical(carrier, (win, combine_payloads(_arm(carrier, win), ws, moved)))


def combine(space, weights, elements) -> Element:
    ws, xs = [as_weight(w) for w in weights], list(elements)
    if len(ws) != len(xs):
        raise ValueError("weights and elements differ in length")
    if not xs:
        raise ValueError("empty combination")
    for e in xs:
        if e.space_id != space.id:
            raise ValueError(f"element of {e.space_id} combined in {space.id}")
    if any(w < 0 for w in ws):
        raise ValueError("negative weight")
    total = sum(ws)
    if total != 1:
        raise ValueError(f"weights sum to {total}, not 1")
    kept = [(w, e) for w, e in zip(ws, xs) if w]
    if len(kept) == 1:
        return kept[0][1]
    ps = [e.payload for _, e in kept]
    return Element(space.id, combine_payloads(space.carrier, [w for w, _ in kept], ps))


def combine2(space, p, x, y) -> Element:
    p = as_weight(p)
    return combine(space, (p, 1 - p), (x, y))


def operator(space):
    """The built operator: P's atoms combined with P's weights."""
    return lambda P: combine(space, [w for _, w in P.atoms], [e for e, _ in P.atoms])


@functools.cache
def _grid(lo, hi):
    """An extended line's sampling lattice, steps of 1/4; a missing bound is
    -8 or 8, or 16 past the given one where that leaves no lattice."""
    if lo is None:
        lo = Fraction(-8) if hi is None or hi >= -8 else hi - 16
    if hi is None:
        hi = Fraction(8) if lo <= 8 else lo + 16
    return tuple(ExtValue(lo + Fraction(k, 4)) for k in range(math.floor(4 * (hi - lo)) + 1))


def sample(carrier, rng):
    if isinstance(carrier, Interval):
        return _lerp64(carrier.lo, carrier.hi, rng)
    if isinstance(carrier, Box):
        return tuple(_lerp64(lo, hi, rng) for lo, hi in carrier.bounds)
    if isinstance(carrier, Simplex):
        cuts = [rng.randint(1, 9) for _ in range(carrier.n)]
        return tuple(Fraction(c, sum(cuts)) for c in cuts)
    if isinstance(carrier, ExtendedLine):
        return INF if rng.randint(1, 6) == 1 else rng.choice(_grid(carrier.lo, carrier.hi))
    if isinstance(carrier, FiniteDiscrete):
        return rng.choice(carrier.labels)
    if isinstance(carrier, Product):
        return tuple(sample(c.carrier, rng) for c in carrier.components)
    label, arm = rng.choice(carrier.components)
    return _canonical(carrier, (label, sample(arm.carrier, rng)))


def _on_arms(carrier, points):
    """points(arm carrier) on every arm, each glued point once."""
    arms = carrier.components
    on_arms = (_canonical(carrier, (lab, p)) for lab, c in arms for p in points(c.carrier))
    return list(dict.fromkeys(on_arms))


def landmarks(carrier):
    if isinstance(carrier, Interval):
        return [carrier.lo, carrier.hi, (carrier.lo + carrier.hi) / 2]
    if isinstance(carrier, Box):
        mid = tuple((lo + hi) / 2 for lo, hi in carrier.bounds)
        return [*itertools.product(*carrier.bounds), mid]
    if isinstance(carrier, Simplex):
        n = carrier.n
        vertices = [tuple(Fraction(i == k) for i in range(n)) for k in range(n)]
        return vertices + [(Fraction(1, n),) * n]
    if isinstance(carrier, ExtendedLine):
        g = _grid(carrier.lo, carrier.hi)
        return [g[0], g[-1], g[len(g) // 2], INF]
    if isinstance(carrier, FiniteDiscrete):
        return [carrier.labels[0], carrier.labels[-1]]
    if isinstance(carrier, Product):
        return list(itertools.product(*(landmarks(c.carrier)[:2] for c in carrier.components)))
    return _on_arms(carrier, landmarks)


def points(carrier):
    """Every point of a finite carrier in listing order, else None."""
    if isinstance(carrier, FiniteDiscrete):
        return list(carrier.labels)
    if isinstance(carrier, Product):
        per = [points(c.carrier) for c in carrier.components]
        return None if None in per else list(itertools.product(*per))
    if isinstance(carrier, Branched):
        finite = all(points(c.carrier) is not None for _, c in carrier.components)
        return _on_arms(carrier, points) if finite else None
    return None


def elements(space):
    pts = points(space.carrier)
    return None if pts is None else [Element(space.id, p) for p in pts]


def draw(space, rng) -> Element:
    return Element(space.id, sample(space.carrier, rng))


# ---------------------------------------------------------------------------
# seeded measures


def cut_weights(rng, n):
    """n weights over 24 summing to 1: the gaps between n - 1 sorted uniform
    cuts of 0..24."""
    cuts = sorted(rng.randint(0, 24) for _ in range(n - 1))
    return [Fraction(b - a, 24) for a, b in zip([0, *cuts], [*cuts, 24])]


def random_measure(rng, space, max_atoms=4) -> FinMeasure:
    k = rng.randint(1, max_atoms)
    xs = [draw(space, rng) for _ in range(k)]
    return fin_from_pairs(space.id, zip(xs, cut_weights(rng, k)))


def meta_pairs(rng, space, max_outer=3, max_atoms=3):
    """A random meta-measure's pairs as drawn: zero weights kept and equal
    inner measures apart."""
    k = rng.randint(1, max_outer)
    inner = [random_measure(rng, space, max_atoms) for _ in range(k)]
    return list(zip(inner, cut_weights(rng, k)))


def random_meta(rng, space, max_outer=3, max_atoms=3) -> MetaMeasure:
    return meta_from_pairs(space.id, meta_pairs(rng, space, max_outer, max_atoms))


# ---------------------------------------------------------------------------
# scans and laws


def _verdict(cases, check, exhaustive, note=""):
    """The first witness of check over cases fails; else a pass with note."""
    for case in cases:
        witness = check(*case)
        if witness is not None:
            return {"status": "fail", "witness": witness}
    out = {"status": "pass" if exhaustive else "sampled-pass"}
    return {**out, "note": note} if note else out


def _scan(space, arity, check, budget, rng, cap=None, grid=False, note=""):
    """check on every arity-tuple of a finite carrier where that is within
    cap, p of the grid outermost when grid is set; else on budget draws,
    each p before its points."""
    elems, heads = elements(space), [P_GRID] if grid else []
    if elems is not None and (cap is None or len(elems) ** arity * len(P_GRID) <= cap):
        return _verdict(itertools.product(*heads, *[elems] * arity), check, True)

    def one():
        return (*(rng.choice(P_GRID) for _ in heads), *(draw(space, rng) for _ in range(arity)))

    return _verdict((one() for _ in range(budget)), check, False, note)


def _compat(space, names, holds, budget, rng):
    """holds(p, *points) is (lhs, rhs) of lhs <= rhs."""

    def check(p, *pts):
        lhs, rhs = holds(p, *pts)
        if lhs <= rhs:
            return None
        named = dict(zip(names, map(space.point_str, pts)))
        return {"p": str(p), "lhs": str(lhs), "rhs": str(rhs), **named}

    note = f"{budget} sampled quadruples"
    return _scan(space, len(names), check, budget, rng or random.Random(0), COMPAT_CAP, True, note)


def compat_2pt(space, d, budget=500, rng=None):
    """d(px + (1-p)z, py + (1-p)z) <= p d(x, y)."""

    def holds(p, x, y, z):
        return d(combine2(space, p, x, z), combine2(space, p, y, z)), p * d(x, y)

    return _compat(space, ("x", "y", "z"), holds, budget, rng)


def compat_4pt(space, d, budget=500, rng=None):
    """d(px + (1-p)y, px' + (1-p)y') <= p d(x, x') + (1-p) d(y, y')."""

    def holds(p, x, y, xp, yp):
        lhs = d(combine2(space, p, x, y), combine2(space, p, xp, yp))
        return lhs, p * d(x, xp) + (1 - p) * d(y, yp)

    return _compat(space, ("x", "y", "xp", "yp"), holds, budget, rng)


def is_affine(m, budget=200, rng=None):
    """m(px + (1-p)y) = p m(x) + (1-p) m(y) for every p of the grid."""
    dom, cod = m.domain, m.codomain

    def check(x, y):
        mx, my = m(x), m(y)
        for p in P_GRID:
            lhs, rhs = m(combine2(dom, p, x, y)), combine2(cod, p, mx, my)
            if lhs != rhs:
                return {
                    "map": m.name, "p": str(p), "x": dom.point_str(x), "y": dom.point_str(y),
                    "lhs": cod.point_str(lhs), "rhs": cod.point_str(rhs),
                }
        return None

    return _scan(dom, 2, check, budget, rng, AFFINE_CAP)


def coseparates(maps, space, budget=400, rng=None):
    """Some map tells every two distinct points apart."""

    def check(x, y):
        if x != y and all(m(x) == m(y) for m in maps):
            return {"x": space.point_str(x), "y": space.point_str(y)}
        return None

    return _scan(space, 2, check, budget, rng)


def discrete_poset(space):
    """(le_pairs, is_total, witness): y <= x iff every p of the grid combines
    y and x to x; total iff every two points combine to one of them and are
    comparable."""
    elems, s = elements(space), space.point_str
    table = {(p, x, y): combine2(space, p, x, y) for p in P_GRID for x in elems for y in elems}

    def le(y, x):
        return all(table[p, y, x] == x for p in P_GRID)

    le_pairs = tuple((y, x) for y in elems for x in elems if le(y, x))
    for x, y in itertools.combinations(elems, 2):
        for p in P_GRID:
            c = table[p, x, y]
            if c not in (x, y):
                return le_pairs, False, {"x": s(x), "y": s(y), "combines_to": s(c), "p": str(p)}
        if not (le(x, y) or le(y, x)):
            return le_pairs, False, {"x": s(x), "y": s(y), "incomparable": "true"}
    return le_pairs, True, {}


def unit_law(h, budget=200, rng=None):
    """h(dirac(a)) = a on every point of a finite carrier, else on the
    landmarks and budget draws."""
    space, note = h.space, ""
    elems = elements(space)
    exhaustive = elems is not None
    if not exhaustive:
        rng = rng or random.Random(11)
        elems = [Element(space.id, p) for p in landmarks(space.carrier)]
        elems += [draw(space, rng) for _ in range(budget)]
        note = f"landmarks + {budget} samples"

    def fixed(a):
        got = h(FinMeasure(space.id, ((a, Fraction(1)),)))
        return None if got == a else {"a": space.point_str(a), "got": space.point_str(got)}

    return _verdict(((a,) for a in elems), fixed, exhaustive, note)


def mult_law(h, budget=300, rng=None):
    """h(mu Q) = h(Q's image under h) on random meta-measures Q."""
    space = h.space
    rng = rng or random.Random(13)

    def text(P):
        atoms = (f"{space.point_str(e)}:{w.numerator}/{w.denominator}" for e, w in P.atoms)
        return f"measure on {space.id}: " + ", ".join(atoms)

    def commutes(pairs):
        kept = [(P, q) for P, q in pairs if q]
        left = h(mu(space.id, kept))
        right = h(fin_from_pairs(space.id, [(h(P), q) for P, q in kept]))
        if left == right:
            return None
        Q = meta_from_pairs(space.id, kept)
        return {
            "Q": "; ".join(f"{q}: {text(P)}" for P, q in Q.atoms),
            "flatten_then_h": space.point_str(left),
            "h_inside_then_h": space.point_str(right),
        }

    draws = ((meta_pairs(rng, space, 5, 5),) for _ in range(budget))
    return _verdict(draws, commutes, False, f"{budget} random meta-measures")
