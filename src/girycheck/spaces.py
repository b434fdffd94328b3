"""Convex spaces over exact rationals.

A space is a carrier set together with an n-ary convex combination rule that
is exact over Fraction weights.  Carriers implemented here:

* rational intervals, boxes, probability simplices (geometric);
* extended lines [lo, hi] plus +inf with absorbing combinations;
* finite label sets with min / max / collapse-to-center rules (discrete);
* products (componentwise rule);
* two or more arms glued into a forest at points (the losing arm of a
  combination is mapped through its gluings into the winning arm, weights
  unchanged; a glued point is one point, written on a source arm).

Everything downstream (measures, transport, algebra checks) goes through
`combine` and the Element type defined here.

The scalar work is done on plain ints and turned into one normalised
Fraction at the end: a weighted sum is one integer numerator over the
terms' least common denominator, the weight checks read numerators and
sum them the same way, and the draws build each coordinate with one
Fraction.  Values and rng calls are those of the plain Fraction
arithmetic.  An Element computes its hash once and keeps it in a slot.
Float weights and coordinates are refused rather than converted.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple, Optional

from .extvalue import INF, ExtValue, parse_ext
from .verdicts import Verdict, check_all

# Probability grid for affinity / compatibility / classification probes.
# The midpoint comes first so first-found witnesses use p = 1/2.
P_GRID = (
    Fraction(1, 2), Fraction(1, 3), Fraction(2, 3),
    Fraction(1, 8), Fraction(1, 4), Fraction(3, 8),
    Fraction(5, 8), Fraction(3, 4), Fraction(7, 8),
)


class SpaceKind(Enum):
    GEOMETRIC = "geometric"
    DISCRETE = "discrete"
    MIXED = "mixed"


@dataclass(frozen=True, slots=True)
class Element:
    """A point of a named space.  Payload shape is carrier-specific.

    The hash is the plain dataclass hash of (space_id, payload), computed on
    first use and kept in the `_hash` slot: Fraction payloads are costly to
    hash, and measures probe the same Element in dicts many times.  Slots
    keep an Element free of a per-instance __dict__."""

    space_id: str
    payload: object
    _hash: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.space_id, self.payload))
            object.__setattr__(self, "_hash", h)
        return h

    def __reduce__(self):
        # rebuilt from its fields, so a copy or an unpickled Element hashes
        # under its own interpreter's string hash seed
        return (Element, (self.space_id, self.payload))

    def __str__(self):
        return f"{self.space_id}:{_payload_str(self.payload)}"


def _as_fraction(x, what: str = "weight") -> Fraction:
    """A weight or a coordinate as a Fraction.  A float is refused rather
    than converted: its binary rounding would turn 0.1 + 0.9 into a total
    that is not 1, and 0.1 into 3602879701896397/36028797018963968."""
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise ValueError(f"float {what} {x!r}; {what}s must be int or Fraction")
    return Fraction(x)


def _products_sum(ws, xs) -> tuple:
    """Σ wᵢ·xᵢ over rationals as (num, den): one integer numerator over the
    terms' least common denominator, with no Fraction built on the way."""
    num, den = 0, 1
    for w, x in zip(ws, xs):
        d = w.denominator * x.denominator
        if den % d:
            lcm = den // math.gcd(den, d) * d
            num *= lcm // den
            den = lcm
        num += w.numerator * x.numerator * (den // d)
    return num, den


def _weighted_sum(ws, xs) -> Fraction:
    """Σ wᵢ·xᵢ, normalised once."""
    return Fraction(*_products_sum(ws, xs))


def _check_unit_mass(weights, message: str = "total mass {}, expected 1") -> None:
    """Raise ValueError(message.format(total)) unless the Fraction weights
    sum to exactly 1.  They are summed on ints, which is cheaper than a
    chain of Fraction additions, each normalised by a gcd."""
    num, den = _products_sum(weights, itertools.repeat(1))
    if num != den:
        raise ValueError(message.format(Fraction(num, den)))


def _lerp64(lo, hi, k: int) -> Fraction:
    """lo + (hi - lo)·k/64 on ints, normalised once."""
    a, b = lo.numerator, lo.denominator
    c, d = hi.numerator, hi.denominator
    return Fraction(64 * a * d + (c * b - a * d) * k, 64 * b * d)


@dataclass(frozen=True)
class WeightVector:
    """Nonnegative rational weights summing to one."""

    weights: tuple

    def __post_init__(self):
        ws = tuple(_as_fraction(w) for w in self.weights)
        object.__setattr__(self, "weights", ws)
        if not ws:
            raise ValueError("empty weight vector")
        if any(w.numerator < 0 for w in ws):
            raise ValueError(f"negative weight in {ws}")
        _check_unit_mass(ws, "weights sum to {}, not 1")

    @classmethod
    def uniform(cls, n: int) -> "WeightVector":
        return cls(tuple(Fraction(1, n) for _ in range(n)))

    def __iter__(self):
        return iter(self.weights)

    def __len__(self):
        return len(self.weights)


def _payload_str(p) -> str:
    if isinstance(p, ExtValue):
        return str(p)
    if isinstance(p, (Fraction, int)):
        return str(Fraction(p))
    if isinstance(p, str):
        return p
    if isinstance(p, tuple):
        return "(" + ",".join(_payload_str(c) for c in p) + ")"
    raise TypeError(f"unprintable payload {p!r}")


# ---------------------------------------------------------------------------
# carriers


def _refuse_empty_range(lo, hi):
    if lo is not None and hi is not None and lo > hi:
        raise ValueError(f"empty carrier: lo {lo} > hi {hi}")


@dataclass(frozen=True)
class Interval:
    """[lo, hi] with the standard rational barycenter."""

    lo: Fraction
    hi: Fraction

    is_finite = False

    def __post_init__(self):
        _refuse_empty_range(self.lo, self.hi)

    def normalize(self, p):
        return _as_fraction(p, "coordinate")

    def contains(self, p) -> bool:
        return isinstance(p, Fraction) and self.lo <= p <= self.hi

    def combine(self, ws, ps):
        return _weighted_sum(ws, ps)

    def sample(self, rng):
        return _lerp64(self.lo, self.hi, rng.randint(0, 64))

    def landmarks(self):
        return [self.lo, self.hi, (self.lo + self.hi) / 2]

    def enumerate_points(self):
        return None

    def point_str(self, p):
        return str(p)

    def parse_point(self, s):
        return Fraction(s)


@dataclass(frozen=True)
class Box:
    """Product of rational intervals; payload is a coordinate tuple."""

    bounds: tuple  # ((lo, hi), ...)

    is_finite = False

    def __post_init__(self):
        for lo, hi in self.bounds:
            _refuse_empty_range(lo, hi)

    def normalize(self, p):
        if not isinstance(p, tuple) or len(p) != len(self.bounds):
            raise ValueError(f"expected {len(self.bounds)} coordinates, got {p!r}")
        return tuple(_as_fraction(c, "coordinate") for c in p)

    def contains(self, p) -> bool:
        return (
            isinstance(p, tuple)
            and len(p) == len(self.bounds)
            and all(lo <= c <= hi for c, (lo, hi) in zip(p, self.bounds))
        )

    def combine(self, ws, ps):
        return tuple(_weighted_sum(ws, xs) for xs in zip(*ps))

    def sample(self, rng):
        return tuple(_lerp64(lo, hi, rng.randint(0, 64)) for lo, hi in self.bounds)

    def landmarks(self):
        corners = list(itertools.product(*[(lo, hi) for lo, hi in self.bounds]))
        mid = tuple((lo + hi) / 2 for lo, hi in self.bounds)
        return corners + [mid]

    def enumerate_points(self):
        return None

    def point_str(self, p):
        return "(" + ",".join(str(c) for c in p) + ")"

    def parse_point(self, s):
        s = s.strip()
        if not (s.startswith("(") and s.endswith(")")):
            raise ValueError(f"expected (c1,...,cn), got {s!r}")
        return tuple(Fraction(part) for part in s[1:-1].split(","))


@dataclass(frozen=True)
class Simplex:
    """Probability vectors of a fixed length; payload is a tuple summing to 1."""

    n: int

    is_finite = False

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"empty carrier: simplex of {self.n} coordinates")

    def normalize(self, p):
        if not isinstance(p, tuple) or len(p) != self.n:
            raise ValueError(f"expected {self.n} coordinates, got {p!r}")
        return tuple(_as_fraction(c, "coordinate") for c in p)

    def contains(self, p) -> bool:
        return (
            isinstance(p, tuple)
            and len(p) == self.n
            and all(c >= 0 for c in p)
            and sum(p) == 1
        )

    def combine(self, ws, ps):
        return tuple(_weighted_sum(ws, xs) for xs in zip(*ps))

    def sample(self, rng):
        cuts = [rng.randint(1, 9) for _ in range(self.n)]
        total = sum(cuts)
        return tuple(Fraction(c, total) for c in cuts)

    def landmarks(self):
        verts = []
        for k in range(self.n):
            verts.append(tuple(Fraction(int(i == k)) for i in range(self.n)))
        verts.append(tuple(Fraction(1, self.n) for _ in range(self.n)))
        return verts

    def enumerate_points(self):
        return None

    def point_str(self, p):
        return "(" + ",".join(str(c) for c in p) + ")"

    def parse_point(self, s):
        s = s.strip()
        if not (s.startswith("(") and s.endswith(")")):
            raise ValueError(f"expected (c1,...,cn), got {s!r}")
        return tuple(Fraction(part) for part in s[1:-1].split(","))


@dataclass(frozen=True)
class ExtendedLine:
    """Rationals in [lo, hi] plus +inf; combinations absorb into +inf.

    lo/hi of None means unbounded on that side.  nonneg restricts to >= 0.
    The sampling grid is a quarter-step lattice; the carrier itself is every
    rational in range (rational barycenters must stay inside).
    """

    lo: Optional[Fraction]
    hi: Optional[Fraction]

    is_finite = False

    def __post_init__(self):
        _refuse_empty_range(self.lo, self.hi)

    def normalize(self, p):
        if isinstance(p, ExtValue):
            return p
        return ExtValue(_as_fraction(p, "coordinate"))

    def contains(self, p) -> bool:
        if not isinstance(p, ExtValue):
            return False
        if p.is_inf:
            return True
        if self.lo is not None and p.value < self.lo:
            return False
        if self.hi is not None and p.value > self.hi:
            return False
        return True

    def combine(self, ws, ps):
        if any(p.is_inf for p in ps):
            return INF
        return ExtValue(_weighted_sum(ws, [p.value for p in ps]))

    @cached_property
    def _grid(self) -> tuple:
        # a missing bound defaults to -8 or 8, or, where that would leave
        # the grid empty, to 16 past the given bound
        lo, hi = self.lo, self.hi
        if lo is None:
            lo = Fraction(-8) if hi is None or hi >= -8 else hi - 16
        if hi is None:
            hi = Fraction(8) if lo <= 8 else lo + 16
        step = Fraction(1, 4)
        pts = []
        x = lo
        while x <= hi:
            pts.append(ExtValue(x))
            x += step
        return tuple(pts)

    def sample(self, rng):
        if rng.randint(1, 6) == 1:
            return INF
        return rng.choice(self._grid)

    def landmarks(self):
        g = self._grid
        return [g[0], g[-1], g[len(g) // 2], INF]

    def enumerate_points(self):
        return None

    def point_str(self, p):
        return str(p)

    def parse_point(self, s):
        return parse_ext(s)


# the carriers whose combine is the weighted mean of the atoms, inf
# absorbing; matched by exact type, since a subclass may combine otherwise
BARYCENTRIC = (Interval, Box, Simplex, ExtendedLine)


@dataclass(frozen=True)
class FiniteDiscrete:
    """Finite label set with a p-independent combination rule.

    rule "min"/"max" takes the earlier/later label in declaration order;
    rule "collapse" sends every combination of distinct points to `center`.
    The labels must compare among themselves: a measure sorts its atoms on
    them.
    """

    labels: tuple
    rule: str
    center: object = None

    is_finite = True

    def __post_init__(self):
        if not self.labels:
            raise ValueError("empty carrier: no labels")
        rank = {lab: k for k, lab in enumerate(self.labels)}
        if len(rank) != len(self.labels):
            raise ValueError("duplicate labels")
        try:
            sorted(self.labels)
        except TypeError:
            raise ValueError(f"labels {self.labels} do not compare among themselves") from None
        if self.rule not in ("min", "max", "collapse"):
            raise ValueError(f"unknown rule {self.rule!r}")
        if self.rule == "collapse" and self.center not in self.labels:
            raise ValueError("collapse rule needs a center label")
        # each label's position in declaration order
        object.__setattr__(self, "_rank", rank)

    def normalize(self, p):
        if p in self.labels:
            return p
        raise ValueError(f"label {p!r} not in {self.labels}")

    def contains(self, p) -> bool:
        return p in self.labels

    def combine(self, ws, ps):
        if self.rule == "collapse":
            first = ps[0]
            return first if all(p == first for p in ps) else self.center
        pick = min if self.rule == "min" else max
        return pick(ps, key=self._rank.__getitem__)

    def sample(self, rng):
        return rng.choice(self.labels)

    def landmarks(self):
        return [self.labels[0], self.labels[-1]]

    def enumerate_points(self):
        return list(self.labels)

    def point_str(self, p):
        return str(p)

    def parse_point(self, s):
        s = s.strip()
        for lab in self.labels:
            if str(lab) == s:
                return lab
        raise ValueError(f"label {s!r} not in {self.labels}")


@dataclass(frozen=True)
class Product:
    """Componentwise combination over a tuple of spaces."""

    components: tuple  # of ConvexSpaceSpec

    @property
    def is_finite(self):
        return all(c.carrier.is_finite for c in self.components)

    def normalize(self, p):
        if not isinstance(p, tuple) or len(p) != len(self.components):
            raise ValueError(f"expected {len(self.components)} components, got {p!r}")
        return tuple(c.carrier.normalize(x) for c, x in zip(self.components, p))

    def contains(self, p) -> bool:
        return (
            isinstance(p, tuple)
            and len(p) == len(self.components)
            and all(c.carrier.contains(x) for c, x in zip(self.components, p))
        )

    def combine(self, ws, ps):
        out = []
        for k, comp in enumerate(self.components):
            out.append(comp.carrier.combine(ws, tuple(p[k] for p in ps)))
        return tuple(out)

    def sample(self, rng):
        return tuple(c.carrier.sample(rng) for c in self.components)

    def landmarks(self):
        per = [c.carrier.landmarks()[:2] for c in self.components]
        return [tuple(t) for t in itertools.product(*per)]

    def enumerate_points(self):
        if not self.is_finite:
            return None
        per = [c.carrier.enumerate_points() for c in self.components]
        return [tuple(t) for t in itertools.product(*per)]

    def point_str(self, p):
        parts = [c.carrier.point_str(x) for c, x in zip(self.components, p)]
        return "[" + "|".join(parts) + "]"

    def parse_point(self, s):
        s = s.strip()
        if not (s.startswith("[") and s.endswith("]")):
            raise ValueError(f"expected [c1|...|cn], got {s!r}")
        parts = _split_top(s[1:-1], "|")
        if len(parts) != len(self.components):
            raise ValueError(f"expected {len(self.components)} components in {s!r}")
        return tuple(
            c.carrier.parse_point(part) for c, part in zip(self.components, parts)
        )


def _split_top(s: str, sep: str):
    """Split on sep outside any bracket nesting."""
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


@dataclass(frozen=True)
class Gluing:
    """Constant transition: every point of branch `src` acts as `target`
    (a point of branch `dst`) inside combinations won by `dst`.  If `ident`
    is set, the src point `ident` and the dst point `target` are the same
    point of the glued space, written on a source arm (Branched.glued)."""

    src: object
    dst: object
    target: object
    ident: object = None


class Crossing(NamedTuple):
    """A gluing crossed into `arm` from `exit` to `entry`, each on its own arm
    (None on the src side without ident); `forward` when crossed src -> dst."""

    arm: object
    exit: object
    entry: object
    forward: bool


@dataclass(frozen=True)
class Branched:
    """Branches indexed by a discrete space, glued along transition maps.

    payload = (branch_label, component_payload).  A combination first
    resolves the winning branch by the discrete rule on the labels present,
    then combines in that branch with unchanged weights, each losing point
    entering through its gluing target.  The gluings form a forest over the
    arms, walked once by `paths`, which the transitions and metric read.
    """

    branch_space: object  # ConvexSpaceSpec with FiniteDiscrete carrier
    components: tuple  # ((label, ConvexSpaceSpec), ...)
    gluings: tuple  # of Gluing

    @property
    def is_finite(self):
        return all(c.carrier.is_finite for _, c in self.components)

    def _component(self, label):
        for lab, comp in self.components:
            if lab == label:
                return comp
        raise ValueError(f"no branch {label!r}")

    def _point(self, label, raw):
        arm = self._component(label)
        return None if raw is None else arm.element(raw).payload

    @cached_property
    def paths(self) -> dict:
        """(a, b) -> the Crossings on the one path of the gluing forest from
        arm a to arm b, in order; () for a == b, no key across two trees.

        Refuses, by name, the first gluing that names a label with no arm or
        a point off its arm, or that closes a cycle: a repeated pair of
        labels or a loop of gluings glues one pair of arms twice, which no
        tree of arms does."""
        paths = {(a, a): () for a, _ in self.components}
        for g in self.gluings:
            at = g.src if g.ident is None else f"{g.src}@{g.ident}"
            name = f"glue {at} -> {g.dst}@{g.target}"
            try:
                src, dst = self._point(g.src, g.ident), self._point(g.dst, g.target)
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from exc
            if (g.src, g.dst) in paths:
                raise ValueError(f"{name} closes a cycle of gluings")
            left = [a for a, b in paths if b == g.src]
            right = [b for a, b in paths if a == g.dst]
            there, back = Crossing(g.dst, src, dst, True), Crossing(g.src, dst, src, False)
            for a, b in itertools.product(left, right):
                paths[a, b] = paths[a, g.src] + (there,) + paths[g.dst, b]
                paths[b, a] = paths[b, g.dst] + (back,) + paths[g.src, a]
        return paths

    @cached_property
    def glued(self) -> dict:
        """Each glued point (label, point) -> the payload that writes it: of
        the points identified with it, the first in gluing order (src before
        dst) that no gluing targets, so that it lies on a source arm."""
        pairs = [
            ((g.src, self._point(g.src, g.ident)), (g.dst, self._point(g.dst, g.target)))
            for g in self.gluings if g.ident is not None
        ]
        order = [p for pair in pairs for p in pair]
        same = {p: {p} for p in order}
        for src, dst in pairs:
            merged = same[src] | same[dst]
            same.update(dict.fromkeys(merged, merged))
        targets = {dst for _, dst in pairs}
        return {p: next(q for q in order if q in same[p] and q not in targets) for p in order}

    def _transition_target(self, src, dst):
        # constant gluings compose to the entry point of the last one on the
        # path, when every gluing on it is crossed src -> dst
        path = self.paths.get((src, dst))
        if path is None or not all(step.forward for step in path):
            raise ValueError(f"no gluing path {src!r} -> {dst!r}")
        return path[-1].entry if path else None

    def normalize(self, p):
        if not (isinstance(p, tuple) and len(p) == 2):
            raise ValueError(f"expected (branch, point), got {p!r}")
        label, inner = p
        p = (label, self._component(label).carrier.normalize(inner))
        return self.glued.get(p, p)

    def contains(self, p) -> bool:
        if not (isinstance(p, tuple) and len(p) == 2):
            return False
        label, inner = p
        try:
            comp = self._component(label)
        except ValueError:
            return False
        return comp.carrier.contains(inner)

    def combine(self, ws, ps):
        win = self.branch_space.carrier.combine(ws, [b for b, _ in ps])
        comp = self._component(win)
        moved = tuple(x if b == win else self._transition_target(b, win) for b, x in ps)
        return self.normalize((win, comp.carrier.combine(ws, moved)))

    def sample(self, rng):
        label, comp = self.components[rng.randrange(len(self.components))]
        return self.normalize((label, comp.carrier.sample(rng)))

    def _arm_points(self, points):
        """points(arm carrier) on every arm, normalized, each glued point once."""
        normal = (self.normalize((lab, p)) for lab, c in self.components for p in points(c.carrier))
        return list(dict.fromkeys(normal))

    def landmarks(self):
        return self._arm_points(lambda c: c.landmarks())

    def enumerate_points(self):
        return self._arm_points(lambda c: c.enumerate_points()) if self.is_finite else None

    def point_str(self, p):
        label, inner = p
        return f"{label}@{self._component(label).carrier.point_str(inner)}"

    def parse_point(self, s):
        s = s.strip()
        if "@" not in s:
            raise ValueError(f"expected branch@point, got {s!r}")
        label, _, rest = s.partition("@")
        comp = self._component(self.branch_space.carrier.parse_point(label))
        return self.normalize(
            (self.branch_space.carrier.parse_point(label), comp.carrier.parse_point(rest))
        )


# ---------------------------------------------------------------------------
# the space type and its operations


class CompiledCarrier(NamedTuple):
    """The Cayley tables of a finite carrier.

    tables[k][i][j] is the index of combine2(P_GRID[k], elems[i], elems[j]);
    reach[i] is the bitmask of every such result over all k and j.
    """

    elems: tuple
    index: dict
    tables: tuple
    reach: tuple


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class ConvexSpaceSpec:
    """A named carrier with a combination rule and a declared kind."""

    id: str
    kind: SpaceKind
    carrier: object
    expect_reject: bool = False

    @property
    def is_finite(self) -> bool:
        return self.carrier.is_finite

    @cached_property
    def compiled(self) -> CompiledCarrier:
        """The carrier's Cayley tables, built by combine2 on first use and
        kept on this spec.  Finite carriers only."""
        elems = self.enumerate_elements()
        if elems is None:
            raise ValueError(f"{self.id}: Cayley tables need a finite carrier")
        index = {e: i for i, e in enumerate(elems)}
        tables = tuple(
            tuple(tuple(index[combine2(self, p, x, y)] for y in elems) for x in elems)
            for p in P_GRID
        )
        reach = [0] * len(elems)
        for table in tables:
            for i, row in enumerate(table):
                for j in row:
                    reach[i] |= 1 << j
        return CompiledCarrier(tuple(elems), index, tables, tuple(reach))

    def element(self, raw) -> Element:
        p = self.carrier.normalize(raw)
        if not self.carrier.contains(p):
            raise ValueError(f"{_payload_str(p)} is not a point of {self.id}")
        return Element(self.id, p)

    def enumerate_elements(self):
        pts = self.carrier.enumerate_points()
        if pts is None:
            return None
        return [Element(self.id, p) for p in pts]

    def sample_element(self, rng) -> Element:
        return Element(self.id, self.carrier.sample(rng))

    def landmark_elements(self):
        return [Element(self.id, p) for p in self.carrier.landmarks()]

    def point_str(self, e: Element) -> str:
        return self.carrier.point_str(e.payload)

    def parse_element(self, s: str) -> Element:
        return self.element(self.carrier.parse_point(s))


def combine(space: ConvexSpaceSpec, weights, elements) -> Element:
    """Convex combination of elements with the given weights.

    Zero-weight entries are dropped before the carrier rule runs.
    """
    ws = [_as_fraction(w) for w in weights]
    xs = list(elements)
    if len(ws) != len(xs):
        raise ValueError("weights and elements differ in length")
    if not xs:
        raise ValueError("empty combination")
    for e in xs:
        if e.space_id != space.id:
            raise ValueError(f"element of {e.space_id} combined in {space.id}")
    if any(w.numerator < 0 for w in ws):
        raise ValueError("negative weight")
    _check_unit_mass(ws, "weights sum to {}, not 1")
    kept = [(w, e) for w, e in zip(ws, xs) if w.numerator]
    if len(kept) == 1:
        return kept[0][1]
    ws2 = tuple(w for w, _ in kept)
    ps2 = tuple(e.payload for _, e in kept)
    return Element(space.id, space.carrier.combine(ws2, ps2))


def combine2(space: ConvexSpaceSpec, p, x: Element, y: Element) -> Element:
    """Binary combination p*x + (1-p)*y, with combine's checks and messages:
    the two weights sum to 1 by construction, so only 0 <= p <= 1 is read,
    on p's numerator."""
    p = _as_fraction(p)
    for e in (x, y):
        if e.space_id != space.id:
            raise ValueError(f"element of {e.space_id} combined in {space.id}")
    n, d = p.numerator, p.denominator
    if n < 0 or n > d:
        raise ValueError("negative weight")
    if n == d:
        return x
    if not n:
        return y
    return Element(space.id, space.carrier.combine((p, 1 - p), (x.payload, y.payload)))


# ---------------------------------------------------------------------------
# the exhaustive-or-sampled scan


def scan(
    space: ConvexSpaceSpec, arity: int, check, budget: int, rng, cap=None, grid=False, note=""
) -> Verdict:
    """Run check on arity-tuples of points of the space until it returns a
    witness dict; the first witness fails the scan.

    A finite carrier of n points is scanned exhaustively when cap is None
    or n**arity * len(P_GRID) <= cap: every tuple in order, and with grid
    every p of P_GRID outermost, passed to check before the points.
    Otherwise budget tuples are drawn from rng, each after one
    rng.choice(P_GRID) when grid is set; a sampled pass carries note.
    """
    elems = space.enumerate_elements()
    exhaustive = elems is not None and (cap is None or len(elems) ** arity * len(P_GRID) <= cap)
    if exhaustive:
        axes = [elems] * arity
        cases = itertools.product(P_GRID, *axes) if grid else itertools.product(*axes)
    else:
        if rng is None:
            raise ValueError(f"sampled scan of {space.id} needs an rng")

        def draw():
            head = (rng.choice(P_GRID),) if grid else ()
            return head + tuple(space.sample_element(rng) for _ in range(arity))

        cases = (draw() for _ in range(budget))
    return check_all(cases, lambda case: check(*case), exhaustive, "" if exhaustive else note)


# ---------------------------------------------------------------------------
# affine maps


@dataclass(frozen=True)
class AffineMap:
    """A map between spaces expected to commute with combinations."""

    domain: ConvexSpaceSpec
    codomain: ConvexSpaceSpec
    fn: Callable
    name: str = "map"

    def __call__(self, e: Element) -> Element:
        if e.space_id != self.domain.id:
            raise ValueError(f"{self.name}: expected point of {self.domain.id}")
        out = self.fn(e)
        if isinstance(out, Element):
            if out.space_id != self.codomain.id:
                raise ValueError(f"{self.name}: output in {out.space_id}")
            return out
        return self.codomain.element(out)


def is_affine(m: AffineMap, budget: int = 200, rng=None) -> Verdict:
    """Check m(p*x + (1-p)*y) == p*m(x) + (1-p)*m(y) over the p-grid.

    Exhaustive on finite carriers, sampled otherwise; a sampled run that
    finds nothing returns sampled-pass.
    """
    dom, cod = m.domain, m.codomain

    def check(x, y):
        for p in P_GRID:
            lhs = m(combine2(dom, p, x, y))
            rhs = combine2(cod, p, m(x), m(y))
            if lhs != rhs:
                return {
                    "map": m.name,
                    "p": str(p),
                    "x": dom.point_str(x),
                    "y": dom.point_str(y),
                    "lhs": cod.point_str(lhs),
                    "rhs": cod.point_str(rhs),
                }
        return None

    return scan(dom, 2, check, budget, rng, cap=20000)


def compose(outer: AffineMap, inner: AffineMap, name=None) -> AffineMap:
    if inner.codomain.id != outer.domain.id:
        raise ValueError("composition mismatch")
    return AffineMap(
        inner.domain,
        outer.codomain,
        lambda e: outer(inner(e)),
        name or f"{outer.name}.{inner.name}",
    )


# ---------------------------------------------------------------------------
# ideals and characteristic maps

RINF = ConvexSpaceSpec("Rinf", SpaceKind.MIXED, ExtendedLine(None, None))
RPLUS = ConvexSpaceSpec("Rplus", SpaceKind.MIXED, ExtendedLine(Fraction(0), None))


def ext_element(v) -> Element:
    """v as a point of Rinf, which holds every ExtValue."""
    return Element(RINF.id, v if isinstance(v, ExtValue) else ExtValue(v))


def as_ext(e: Element) -> ExtValue:
    if not isinstance(e.payload, ExtValue):
        raise ValueError(f"{e} is not an extended value")
    return e.payload


@dataclass(frozen=True)
class Ideal:
    """A subset closed under combining its members with anything (the member
    keeps positive weight)."""

    space_id: str
    members: frozenset

    def member_list(self):
        return sorted(self.members, key=lambda e: e.payload)


def is_ideal(space: ConvexSpaceSpec, members: frozenset) -> bool:
    """Is every combination of a member with any point again a member?"""
    c = space.compiled
    idx = [c.index.get(e) for e in members]
    if None in idx:
        return False
    mask = sum(1 << i for i in set(idx))
    return all(c.reach[i] & ~mask == 0 for i in idx)


def enumerate_ideals(space: ConvexSpaceSpec):
    """All proper nonempty ideals of a finite space.

    Ideals are closed under union and every ideal is a union of principal
    ones, so we close the principal ideals under pairwise union.
    """
    c = space.compiled
    full = (1 << len(c.elems)) - 1

    def principal(i):
        closed, frontier = 1 << i, 1 << i
        while frontier:
            grown = 0
            for j in _bits(frontier):
                grown |= c.reach[j]
            frontier = grown & ~closed
            closed |= frontier
        return closed

    found = set()
    todo = [principal(i) for i in range(len(c.elems))]
    while todo:
        m = todo.pop()
        if m != full and m not in found:
            todo.extend(m | other for other in found)
            found.add(m)
    out = [Ideal(space.id, frozenset(c.elems[i] for i in _bits(m))) for m in found]
    out.sort(key=lambda i: (len(i.members), [e.payload for e in i.member_list()]))
    return tuple(out)


def char_map(space: ConvexSpaceSpec, ideal: Ideal) -> AffineMap:
    """The {0, inf}-valued map of an ideal: inf on members, 0 elsewhere."""
    if ideal.space_id != space.id:
        raise ValueError("ideal belongs to a different space")
    members = ideal.members
    label = ",".join(_payload_str(e.payload) for e in Ideal(space.id, members).member_list())
    inf, zero = ext_element(INF), ext_element(0)
    return AffineMap(
        space,
        RINF,
        lambda e: inf if e in members else zero,
        name=f"chi[{label}]",
    )


def coseparates(maps, space: ConvexSpaceSpec, budget: int = 400, rng=None) -> Verdict:
    """Do the maps distinguish every pair of distinct points?

    A finite carrier is scanned over ordered pairs; the check is symmetric,
    so the first witness is the first unordered pair that fails."""

    def check(x, y):
        if x != y and all(m(x) == m(y) for m in maps):
            return {"x": space.point_str(x), "y": space.point_str(y)}
        return None

    return scan(space, 2, check, budget, rng)


# ---------------------------------------------------------------------------
# order structure and classification


@dataclass(frozen=True)
class PosetReport:
    """The order y <= x iff p*y + (1-p)*x = x for all p, plus totality."""

    space_id: str
    le_pairs: tuple
    is_total: bool
    witness: dict = field(default_factory=dict)


def discrete_poset(space: ConvexSpaceSpec) -> PosetReport:
    c = space.compiled
    elems, tables = c.elems, c.tables

    def le(y, x):
        return all(t[y][x] == x for t in tables)

    n = len(elems)
    le_pairs = tuple((elems[y], elems[x]) for y in range(n) for x in range(n) if le(y, x))

    def comparable(pair):
        (i, x), (j, y) = pair
        for p, t in zip(P_GRID, tables):
            if t[i][j] not in (i, j):
                return {
                    "x": space.point_str(x),
                    "y": space.point_str(y),
                    "combines_to": space.point_str(elems[t[i][j]]),
                    "p": str(p),
                }
        if le(i, j) or le(j, i):
            return None
        return {"x": space.point_str(x), "y": space.point_str(y), "incomparable": "true"}

    total = check_all(itertools.combinations(enumerate(elems), 2), comparable)
    return PosetReport(space.id, le_pairs, total.ok, total.witness)


# ---------------------------------------------------------------------------
# constructors and built-in spaces


def interval_space(space_id, lo, hi) -> ConvexSpaceSpec:
    return ConvexSpaceSpec(space_id, SpaceKind.GEOMETRIC, Interval(Fraction(lo), Fraction(hi)))


def box_space(space_id, bounds) -> ConvexSpaceSpec:
    bb = tuple((Fraction(lo), Fraction(hi)) for lo, hi in bounds)
    return ConvexSpaceSpec(space_id, SpaceKind.GEOMETRIC, Box(bb))


def simplex_space(space_id, n) -> ConvexSpaceSpec:
    return ConvexSpaceSpec(space_id, SpaceKind.GEOMETRIC, Simplex(n))


def extended_line_space(space_id, lo, hi) -> ConvexSpaceSpec:
    lo = None if lo is None else Fraction(lo)
    hi = None if hi is None else Fraction(hi)
    return ConvexSpaceSpec(space_id, SpaceKind.MIXED, ExtendedLine(lo, hi))


def labels_space(space_id, labels, rule, center=None) -> ConvexSpaceSpec:
    return ConvexSpaceSpec(
        space_id, SpaceKind.DISCRETE, FiniteDiscrete(tuple(labels), rule, center)
    )


def naturals_space(space_id, n, rule="min") -> ConvexSpaceSpec:
    return labels_space(space_id, tuple(range(n)), rule)


def product_space(a: ConvexSpaceSpec, b: ConvexSpaceSpec, space_id=None) -> ConvexSpaceSpec:
    comps = (a, b)
    kinds = {c.kind for c in comps}
    kind = kinds.pop() if len(kinds) == 1 else SpaceKind.MIXED
    return ConvexSpaceSpec(space_id or f"({a.id}x{b.id})", kind, Product(comps))


def semidirect_space(branch_space, components, gluings, space_id) -> ConvexSpaceSpec:
    """components: list of (branch_label, space); gluings: list of Gluing."""
    labels = [lab for lab, _ in components]
    for k, label in enumerate(labels):
        if label in labels[:k]:
            raise ValueError(f"branch {label!r} has two arms")
    carrier = Branched(branch_space, tuple(components), tuple(gluings))
    carrier.paths  # walking the gluings refuses the first one at fault
    # every losing->winning transition must be reachable; a loses to b when
    # combining the two labels yields b
    for a, b in itertools.permutations(labels, 2):
        ends = branch_space.element(a), branch_space.element(b)
        if all(combine2(branch_space, p, *ends).payload == b for p in P_GRID):
            carrier._transition_target(a, b)
    return ConvexSpaceSpec(space_id, SpaceKind.MIXED, carrier)


def projection(prod: ConvexSpaceSpec, index: int) -> AffineMap:
    comp = prod.carrier.components[index]
    return AffineMap(prod, comp, lambda e: comp.element(e.payload[index]), name=f"proj{index}")


def builtin_spaces() -> dict:
    """The standard space menu used by tests and the CLI."""
    unit = interval_space("unit_interval", 0, 1)
    d4 = naturals_space("D4-min", 4)
    two = labels_space("two", ("0", "1"), "max")
    branches = labels_space("vee-branches", ("L", "H"), "max")
    arm_l = interval_space("vee-L", 0, 1)
    arm_h = interval_space("vee-H", 0, 1)
    spaces = [
        unit,
        box_space("box2", [(0, 1), (0, 1)]),
        simplex_space("simplex3", 3),
        extended_line_space("rinf-grid", -4, 4),
        extended_line_space("rplus-grid", 0, 4),
        naturals_space("N-min", 32),
        labels_space("chain-max", ("a", "b", "c", "d", "e"), "max"),
        two,
        d4,
        # carrier listed (0,1,u): the first incomparable pair and the first
        # compatibility violation then involve 0 and 1
        ConvexSpaceSpec(
            "C",
            SpaceKind.DISCRETE,
            FiniteDiscrete(("0", "1", "u"), "collapse", "u"),
            expect_reject=True,
        ),
        product_space(unit, d4, "GxD"),
        semidirect_space(
            branches,
            [("L", arm_l), ("H", arm_h)],
            [Gluing("L", "H", Fraction(0), ident=Fraction(0))],
            "vee",
        ),
        labels_space("point", ("*",), "min"),
        RINF,
        RPLUS,
    ]
    return {s.id: s for s in spaces}
