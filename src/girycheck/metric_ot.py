"""Extended metrics, metric-convexity compatibility checks, and exact
Wasserstein-1 transport on finitely supported measures.

Each transport instance is scaled to ints once, in `_setup`: masses over
their common denominator, and per cell a 0/1 count of infinite units plus
the finite distance over the costs' common denominator.  Both solvers
compare plans lexicographically on (mass routed over infinite distance,
finite cost), and `_finish` alone turns the result back into exact
rationals.  A plan that cannot avoid infinite pairs has distance inf, and
the independent coupling is reported as the canonical plan in that case.

Compat is decided, not scanned, for the library's own norm metrics on the
barycentric carriers (decided_compat): the l1 and linf kernels and ext-abs
are module-level functions, recognised by identity.  Every other metric is
scanned by compat_check_2pt and compat_check_4pt, which stay the oracles.

Each simplex pivot walks its basis tree once: one BFS from row 0 gives the
potentials and the parent links, and the entering cycle is read off the
parent links.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm
from typing import Optional

from .extvalue import INF, ZERO, ExtValue, ext_abs_diff, ext_sum
from .measures import FinMeasure, pushforward, to_text
from .sampling import random_measure
from .spaces import (
    BARYCENTRIC,
    Box,
    Branched,
    ConvexSpaceSpec,
    Element,
    ExtendedLine,
    FiniteDiscrete,
    Interval,
    Product,
    Simplex,
    combine2,
    scan,
)
from .verdicts import FAIL, PASS, SAMPLED_PASS, Verdict, check_all, failed, passed

# exhaustive compat scans are capped at this many inequality evaluations
EXHAUSTIVE_CAP = 300_000


@dataclass(frozen=True)
class ExtMetric:
    """A [0, inf]-valued metric given by an explicit rule on elements."""

    space_id: str
    name: str
    fn: object

    def __call__(self, x: Element, y: Element) -> ExtValue:
        if x.space_id != self.space_id or y.space_id != self.space_id:
            raise ValueError(
                f"metric {self.name} on {self.space_id} applied to "
                f"{x.space_id}/{y.space_id} elements"
            )
        return self.fn(x, y)


# ---------------------------------------------------------------------------
# metric constructors


# the kernels of the library's own norm metrics, shared by every space so
# that decided_compat can recognise them by identity


def _coordinates(x, y):
    a, b = x.payload, y.payload
    return ((a,), (b,)) if not isinstance(a, tuple) else (a, b)


def _l1_distance(x, y):
    a, b = _coordinates(x, y)
    return ExtValue(sum(abs(s - t) for s, t in zip(a, b)))


def _linf_distance(x, y):
    a, b = _coordinates(x, y)
    return ExtValue(max(abs(s - t) for s, t in zip(a, b)))


def _ext_abs_distance(x, y):
    return ext_abs_diff(x.payload, y.payload)


def l1_metric(space: ConvexSpaceSpec) -> ExtMetric:
    return ExtMetric(space.id, "l1", _l1_distance)


def linf_metric(space: ConvexSpaceSpec) -> ExtMetric:
    return ExtMetric(space.id, "linf", _linf_distance)


def discrete_metric(space: ConvexSpaceSpec) -> ExtMetric:
    """0/1 distance, on a carrier with countably many points only: the
    discrete metric on a continuum is not separable, so no monad covers it."""
    if not space.is_finite:
        raise ValueError(
            f"the discrete metric needs a finite carrier: on {space.id} it is not separable"
        )

    def d(x, y):
        return ExtValue(0 if x.payload == y.payload else 1)

    return ExtMetric(space.id, "discrete", d)


def order_metric(space: ConvexSpaceSpec) -> ExtMetric:
    """|i - j| on the declaration order of a finite label carrier."""
    carrier = space.carrier
    if not isinstance(carrier, FiniteDiscrete):
        raise ValueError("order metric needs a finite label carrier")

    def d(x, y):
        return ExtValue(abs(carrier._rank[x.payload] - carrier._rank[y.payload]))

    return ExtMetric(space.id, "order", d)


def extended_abs_metric(space: ConvexSpaceSpec) -> ExtMetric:
    return ExtMetric(space.id, "ext-abs", _ext_abs_distance)


def table_metric(space: ConvexSpaceSpec, table: dict) -> ExtMetric:
    """Metric from an explicit table on label payloads.

    The table may list each unordered pair once; lookups try both orders.
    """

    def d(x, y):
        if x.payload == y.payload:
            return ExtValue(0)
        key = (x.payload, y.payload)
        if key not in table:
            key = (y.payload, x.payload)
        return ExtValue(table[key])

    return ExtMetric(space.id, "table", d)


def product_sum_metric(space: ConvexSpaceSpec) -> ExtMetric:
    comps = space.carrier.components
    parts = tuple(default_metric(c) for c in comps)

    def d(x, y):
        return ext_sum(
            dk(Element(ck.id, x.payload[k]), Element(ck.id, y.payload[k]))
            for k, (ck, dk) in enumerate(zip(comps, parts))
        )

    return ExtMetric(space.id, "+".join(p.name for p in parts), d)


def glued_path_metric(space: ConvexSpaceSpec) -> ExtMetric:
    """Distance within an arm is the arm's metric; across arms it is the sum
    of the arm distances along the one path of the gluing forest
    (Branched.paths), through each gluing's identified points."""
    carrier = space.carrier
    arm = {lab: default_metric(comp) for lab, comp in carrier.components}

    def arm_dist(label, a, b):
        comp = carrier._component(label)
        return arm[label](Element(comp.id, a), Element(comp.id, b))

    def d(x, y):
        (la, a), (lb, b) = x.payload, y.payload
        path = carrier.paths.get((la, lb))
        if path is None or any(None in (step.exit, step.entry) for step in path):
            raise ValueError(f"no identified glue point between {la!r} and {lb!r}")
        total = ZERO
        for step in path:
            total += arm_dist(la, a, step.exit)
            la, a = step.arm, step.entry
        return total + arm_dist(la, a, b)

    return ExtMetric(space.id, "glued-path", d)


def default_metric(space: ConvexSpaceSpec) -> ExtMetric:
    carrier = space.carrier
    if isinstance(carrier, (Interval, Box, Simplex)):
        return l1_metric(space)
    if isinstance(carrier, ExtendedLine):
        return extended_abs_metric(space)
    if isinstance(carrier, FiniteDiscrete):
        # chains measure rank distance; unordered rule sets fall back to 0/1
        if carrier.rule in ("min", "max"):
            return order_metric(space)
        return discrete_metric(space)
    if isinstance(carrier, Product):
        return product_sum_metric(space)
    if isinstance(carrier, Branched):
        return glued_path_metric(space)
    raise ValueError(f"no default metric for carrier {type(carrier).__name__}")


# ---------------------------------------------------------------------------
# compatibility of metric with the convex structure


_NORM_NOTE = "decided: the {} norm makes the 2-point form an equality, the 4-point form subadditivity"


def decided_compat(space: ConvexSpaceSpec, metric) -> Optional[Verdict]:
    """The pass verdict of both compat forms where a lemma decides them,
    else None, to scan.

    On a carrier of exactly type Interval, Box or Simplex (a subclass may
    combine otherwise) h is the weighted mean, so under the l1 or linf norm
    d(px + (1-p)z, py + (1-p)z) = |p(x - y)| = p*d(x, y), and the 4-point
    form is the triangle inequality.  On exactly ExtendedLine with ext-abs
    the same holds on finite points; a combination with an infinite atom is
    inf, at distance 0 from inf and inf from every finite point, and the
    right side then carries p or 1 - p times an infinite distance.  The
    metric must be an ExtMetric of this space whose rule is the library's
    own kernel: a foreign rule under the same name is scanned.
    """
    carrier = type(space.carrier)
    if type(metric) is not ExtMetric or metric.space_id != space.id or carrier not in BARYCENTRIC:
        return None
    kernel = metric.fn
    if carrier is ExtendedLine:
        if kernel is _ext_abs_distance:
            return passed(True, "decided: ext-abs is the norm |x - y| on finite points, and inf absorbs")
    elif kernel is _l1_distance or kernel is _linf_distance:
        norm = "l1" if kernel is _l1_distance else "linf"
        return passed(True, _NORM_NOTE.format(norm))
    return None


def compat_check_2pt(
    space: ConvexSpaceSpec, metric: ExtMetric, budget: int = 500, rng=None
) -> Verdict:
    """d(px + (1-p)z, py + (1-p)z) <= p * d(x, y)."""

    def check(p, x, y, z):
        lhs = metric(combine2(space, p, x, z), combine2(space, p, y, z))
        rhs = p * metric(x, y)
        return None if lhs <= rhs else _compat_witness(space, p, lhs, rhs, x=x, y=y, z=z)

    return _compat_scan(space, 3, check, budget, rng)


def compat_check_4pt(
    space: ConvexSpaceSpec, metric: ExtMetric, budget: int = 500, rng=None
) -> Verdict:
    """d(px + (1-p)y, px' + (1-p)y') <= p d(x,x') + (1-p) d(y,y')."""

    def check(p, x, y, xp, yp):
        lhs = metric(combine2(space, p, x, y), combine2(space, p, xp, yp))
        rhs = p * metric(x, xp) + (1 - p) * metric(y, yp)
        return None if lhs <= rhs else _compat_witness(space, p, lhs, rhs, x=x, y=y, xp=xp, yp=yp)

    return _compat_scan(space, 4, check, budget, rng)


def _compat_scan(space, arity, check, budget, rng) -> Verdict:
    return scan(
        space, arity, check, budget, rng or random.Random(0),
        cap=EXHAUSTIVE_CAP, grid=True, note=f"{budget} sampled quadruples",
    )


def _compat_witness(space, p, lhs, rhs, **points) -> dict:
    out = {"p": str(p), "lhs": str(lhs), "rhs": str(rhs)}
    for key, e in points.items():
        out[key] = space.point_str(e)
    return out


def equiv_check(
    space: ConvexSpaceSpec, metric: ExtMetric, budget: int = 500, rng=None
) -> Verdict:
    """Run both compatibility scans on streams drawn from rng and judge
    their agreement with equiv_verdict; a decided compat scans neither."""
    decided = decided_compat(space, metric)
    if decided is not None:
        return equiv_verdict(decided, decided)
    rng = rng or random.Random(0)
    two = compat_check_2pt(space, metric, budget, random.Random(rng.random()))
    four = compat_check_4pt(space, metric, budget, random.Random(rng.random()))
    return equiv_verdict(two, four)


def equiv_verdict(two: Verdict, four: Verdict) -> Verdict:
    """The two-point and four-point conditions must render the same verdict.

    Only an exhaustive pass against a failure is a disagreement: a sampled
    pass is absence of evidence, so against a failure it stays sampled.
    Agreement on a failure is definitive: both scans produced witnesses."""
    statuses = (two.status, four.status)
    witness = {"two_point": two.status, "four_point": four.status}
    if PASS in statuses and FAIL in statuses:
        return failed(witness, note="one-sided compatibility failure")
    return Verdict(SAMPLED_PASS if SAMPLED_PASS in statuses else PASS, witness=witness)


# ---------------------------------------------------------------------------
# couplings and transport results


@dataclass(frozen=True)
class Coupling:
    joint: FinMeasure  # lives on the pair space, payloads (x, y)
    left: FinMeasure
    right: FinMeasure

    def marginal(self, side) -> FinMeasure:
        side = {"left": 0, "right": 1}.get(side, side)
        base = (self.left, self.right)[side]
        return pushforward(
            lambda e: Element(base.space_id, e.payload[side]), self.joint
        )

    def marginals_ok(self) -> bool:
        return self.marginal(0) == self.left and self.marginal(1) == self.right

    def cost(self, metric: ExtMetric) -> ExtValue:
        sid = self.left.space_id
        return ext_sum(
            w * metric(Element(sid, e.payload[0]), Element(sid, e.payload[1]))
            for e, w in self.joint.atoms
        )


@dataclass(frozen=True)
class TransportResult:
    cost: ExtValue
    plan: Coupling
    method: str  # "lp" or "brute"


def _plan_cost(plan, units, finite):
    """(mass over infinite distance, finite cost) of an int plan, to compare
    lexicographically."""
    inf_mass = cost = 0
    for (i, j), w in plan.items():
        inf_mass += w * units[i][j]
        cost += w * finite[i][j]
    return inf_mass, cost


def _setup(P: FinMeasure, Q: FinMeasure, metric: ExtMetric):
    """The instance scaled once to ints, calling the metric once per pair.

    Supplies and demands go over their common denominator mass_den.  A pair
    at infinite distance has units 1 and finite 0; any other pair has units
    0 and its distance over the common denominator cost_den as finite.
    """
    if P.space_id != Q.space_id:
        raise ValueError(f"measures on {P.space_id} and {Q.space_id}")
    if metric.space_id != P.space_id:
        raise ValueError(f"metric on {metric.space_id}, measures on {P.space_id}")
    ys = [e for e, _ in Q.atoms]
    dists = [[metric(x, y) for y in ys] for x, _ in P.atoms]
    units = [[int(d.is_inf) for d in row] for row in dists]
    cost_den = lcm(*(d.value.denominator for row in dists for d in row if not d.is_inf))
    finite = [[0 if d.is_inf else _scale(d.value, cost_den) for d in row] for row in dists]
    mass_den = lcm(*(w.denominator for _, w in P.atoms + Q.atoms))
    supplies, demands = ([_scale(w, mass_den) for _, w in M.atoms] for M in (P, Q))
    return supplies, demands, units, finite, mass_den, cost_den


def _scale(q, den):
    return q.numerator * (den // q.denominator)


def _finish(P, Q, instance, plan, method) -> TransportResult:
    """Turn an int plan back into Fractions: the one place that does."""
    supplies, demands, units, finite, mass_den, cost_den = instance
    inf_mass, cost = _plan_cost(plan, units, finite)
    if inf_mass:
        # no finite-cost plan exists; report inf with the independent coupling
        plan = {(i, j): s * d for i, s in enumerate(supplies) for j, d in enumerate(demands)}
        den, cost = mass_den * mass_den, INF
    else:
        den, cost = mass_den, ExtValue(Fraction(cost, mass_den * cost_den))
    # P's and Q's atoms are canonical and distinct, so the positive cells in
    # (i, j) order are the joint's canonical atoms; their masses sum to den
    xs = [e.payload for e, _ in P.atoms]
    ys = [e.payload for e, _ in Q.atoms]
    pair_id = f"({P.space_id}x{Q.space_id})"
    atoms = tuple(
        (Element(pair_id, (xs[i], ys[j])), Fraction(w, den))
        for (i, j), w in sorted(plan.items())
        if w > 0
    )
    return TransportResult(cost, Coupling(FinMeasure(pair_id, atoms), P, Q), method)


# ---------------------------------------------------------------------------
# network simplex (exact, lexicographic costs, Bland's rule)


def wasserstein(P: FinMeasure, Q: FinMeasure, metric: ExtMetric) -> TransportResult:
    if len(P.atoms) > 64 or len(Q.atoms) > 64:
        raise ValueError("supports above 64 atoms are out of scope")
    instance = _setup(P, Q, metric)
    return _finish(P, Q, instance, _network_simplex(*instance[:4]), "lp")


def _network_simplex(supplies, demands, units, finite):
    """Optimal int plan {(i, j): mass}.

    Pricing folds each cell's cost to units * big + finite, where
    big = 2(n+m) * max|finite| + 1.  The finite part of a reduced cost is a
    signed sum of at most 2(n+m) - 1 arc costs, so it stays below big in
    absolute value: a folded reduced cost is negative exactly when its
    (units, finite) pair is lexicographically negative.
    """
    n, m = len(supplies), len(demands)
    big = 2 * (n + m) * max(abs(f) for row in finite for f in row) + 1
    costs = [[u * big + f for u, f in zip(urow, frow)] for urow, frow in zip(units, finite)]
    basis = _northwest(supplies, demands)
    while True:
        pot, link, depth = _tree_walk(basis, costs, n, m)
        u, v = pot[:n], pot[n:]
        # basic cells price to exactly 0, so only nonbasic cells can enter
        entering = next(
            ((i, j) for i in range(n) for j in range(m) if costs[i][j] - u[i] - v[j] < 0), None
        )
        if entering is None:
            break
        i0, j0 = entering
        _pivot(basis, entering, _basis_path(link, depth, i0, n + j0))
    return {(i, j): w for i, j, w in basis if w > 0}


def _northwest(supplies, demands):
    """Northwest-corner start: a degenerate-safe spanning-tree basis."""
    n, m = len(supplies), len(demands)
    s, d = list(supplies), list(demands)
    basis = []
    i = j = 0
    while True:
        take = min(s[i], d[j])
        basis.append([i, j, take])
        s[i] -= take
        d[j] -= take
        if i == n - 1 and j == m - 1:
            return basis
        if s[i] == 0 and i < n - 1:
            i += 1
        else:
            j += 1


def _tree_walk(basis, costs, n, m):
    """One BFS over the basis tree from row 0; rows are nodes 0..n-1 and
    columns nodes n..n+m-1.

    Returns per node its potential (u_i + v_j = c_ij on basic cells, 0 at
    row 0), its parent link (parent node, basis index) and its depth.
    """
    adj = [[] for _ in range(n + m)]
    for k, (i, j, _) in enumerate(basis):
        adj[i].append((n + j, k))
        adj[n + j].append((i, k))
    pot, link, depth = [None] * (n + m), [None] * (n + m), [0] * (n + m)
    pot[0] = 0
    queue = [0]  # read while it grows: a FIFO queue that ends as the visit order
    for a in queue:
        for b, k in adj[a]:
            if pot[b] is None:
                i, j, _ = basis[k]
                pot[b] = costs[i][j] - pot[a]
                link[b] = (a, k)
                depth[b] = depth[a] + 1
                queue.append(b)
    if len(queue) < n + m:
        raise RuntimeError("transport basis lost connectivity")
    return pot, link, depth


def _basis_path(link, depth, a, b):
    """Basis indices along the unique tree path node a -> node b, in order
    from a: both ends climb their parent links, the deeper end first, until
    they meet."""
    head, tail = [], []
    while a != b:
        if depth[a] >= depth[b]:
            a, k = link[a]
            head.append(k)
        else:
            b, k = link[b]
            tail.append(k)
    return head + tail[::-1]


def _pivot(basis, entering, path):
    """Push the most mass the cycle allows around entering + path (the tree
    path row i0 -> col j0); the first blocking cell in (row, col) order
    leaves the basis."""
    # entering cell takes +; path cells starting at row i0 alternate -, +, ...
    minus, plus = path[0::2], path[1::2]
    theta = min(basis[k][2] for k in minus)
    leaving = min((k for k in minus if basis[k][2] == theta), key=lambda k: basis[k][:2])
    for k in minus:
        basis[k][2] -= theta
    for k in plus:
        basis[k][2] += theta
    basis[leaving] = [*entering, theta]


# ---------------------------------------------------------------------------
# brute-force oracle: enumerate the transport polytope's vertices


def brute_force_wasserstein(P: FinMeasure, Q: FinMeasure, metric: ExtMetric) -> TransportResult:
    n, m = len(P.atoms), len(Q.atoms)
    if n > 4 or m > 4:
        raise ValueError("brute-force solver is limited to supports of size 4")
    instance = _setup(P, Q, metric)
    supplies, demands, units, finite = instance[:4]
    best = best_plan = None
    for cells in _tree_cell_sets(n, m):
        plan = _leaf_solve(cells, supplies, demands)
        if plan is None:
            continue
        total = _plan_cost(plan, units, finite)
        if best is None or total < best:
            best, best_plan = total, plan
    return _finish(P, Q, instance, best_plan, "brute")


@lru_cache(maxsize=None)
def _tree_cell_sets(n, m):
    """All spanning trees of the complete bipartite transport graph."""
    cells = [(i, j) for i in range(n) for j in range(m)]
    keep = []
    for subset in combinations(cells, n + m - 1):
        parent = list(range(n + m))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        acyclic = True
        for i, j in subset:
            ra, rb = find(i), find(n + j)
            if ra == rb:
                acyclic = False
                break
            parent[ra] = rb
        if acyclic:
            # n+m-1 acyclic edges on n+m nodes span them all
            keep.append(subset)
    return tuple(keep)


def _leaf_solve(cells, supplies, demands):
    """Unique basic solution on a spanning tree; None when infeasible."""
    s, d = list(supplies), list(demands)
    alive = list(cells)
    masses = {}
    while alive:
        rdeg, cdeg = defaultdict(int), defaultdict(int)
        for i, j in alive:
            rdeg[i] += 1
            cdeg[j] += 1
        pick = None
        for idx, (i, j) in enumerate(alive):
            if rdeg[i] == 1 or cdeg[j] == 1:
                pick = (idx, s[i] if rdeg[i] == 1 else d[j])
                break
        if pick is None:
            return None
        idx, w = pick
        if w < 0:
            return None
        i, j = alive.pop(idx)
        masses[(i, j)] = w
        s[i] -= w
        d[j] -= w
    if any(s) or any(d):
        return None
    return {k: w for k, w in masses.items() if w > 0}


# ---------------------------------------------------------------------------
# the contraction property of expectation maps


def lipschitz_check(
    eps, metric: ExtMetric, budget: int = 500, rng=None, space=None, max_atoms=4
) -> Verdict:
    """d(eps(P), eps(Q)) <= W1(P, Q) on random measure pairs."""
    space = space if space is not None else eps.space
    rng = rng or random.Random(7)

    def within(pair):
        P, Q = pair
        lhs = metric(eps(P), eps(Q))
        rhs = wasserstein(P, Q, metric).cost
        if lhs <= rhs:
            return None
        return {"P": to_text(P, space), "Q": to_text(Q, space), "lhs": str(lhs), "rhs": str(rhs)}

    pairs = (
        (random_measure(rng, space, max_atoms), random_measure(rng, space, max_atoms))
        for _ in range(budget)
    )
    verdict = check_all(pairs, within, note=f"{budget} random pairs")
    if verdict.ok:
        return verdict
    return replace(verdict, note="expectation map is not 1-Lipschitz here")
