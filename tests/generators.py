"""Spaces beyond the built-ins that several test files run on, and seeded
generators that only the tests draw from: depth-three measure towers,
small random label spaces, random metrics on their labels and random
forests of glued arms.

Everything takes an explicit random.Random, as `girycheck.sampling` does.
"""

import random
import string
from fractions import Fraction

from girycheck.extvalue import INF, ExtValue
from girycheck.sampling import random_meta
from girycheck.spaces import (
    Branched,
    ConvexSpaceSpec,
    Gluing,
    SpaceKind,
    extended_line_space,
    interval_space,
    labels_space,
    product_space,
    semidirect_space,
)
from reference import cut_weights

J = interval_space("J", 0, 1)
EXTRA_SPACES = {
    # the branched space of ROADMAP item 2: `glue A@0 -> B@1/2`, `glue B@0 ->
    # C@1/2`, `space wye kind=mixed carrier=semidirect tri A:J B:J C:J`
    "wye": semidirect_space(
        labels_space("tri", ("A", "B", "C"), "max"),
        [("A", J), ("B", J), ("C", J)],
        [Gluing("A", "B", Fraction(1, 2), ident=Fraction(0)),
         Gluing("B", "C", Fraction(1, 2), ident=Fraction(0))],
        "wye",
    ),
    "labels-x-interval": product_space(labels_space("abc", ("a", "b", "c"), "min"), J, "abcxJ"),
    # `space far-above kind=mixed carrier=extline 10 -`, and its mirror
    "far-above": extended_line_space("far-above", 10, None),
    "far-below": extended_line_space("far-below", None, -9),
    # finite-small's largest label spaces
    "six-max": labels_space("six-max", tuple("abcdef"), "max"),
    "six-min": labels_space("six-min", tuple("abcdef"), "min"),
}


def random_tower(rng: random.Random, space: ConvexSpaceSpec):
    """Weights plus meta-measures: one layer above MetaMeasure, used to
    exercise the two ways of flattening a depth-three tower."""
    k = rng.randint(1, 3)
    metas = [random_meta(rng, space) for _ in range(k)]
    ws = cut_weights(rng, k)
    return ws, metas


def random_finite_discrete_space(rng: random.Random, ident: str) -> ConvexSpaceSpec:
    n = rng.randint(2, 5)
    labels = tuple(string.ascii_lowercase[:n])
    rule = rng.choice(("min", "max", "collapse"))
    center = rng.choice(labels) if rule == "collapse" else None
    return labels_space(ident, labels, rule, center=center)


def random_discrete_metric(rng: random.Random, labels):
    """Random positive symmetric distances, shortest-path closed so the
    triangle inequality holds exactly."""
    labels = tuple(labels)
    d = {}
    for i, a in enumerate(labels):
        for b in labels[i + 1 :]:
            w = Fraction(rng.randint(1, 6))
            d[(a, b)] = w
            d[(b, a)] = w
        d[(a, a)] = Fraction(0)
    d[(labels[-1], labels[-1])] = Fraction(0)
    # Floyd-Warshall closure keeps it a genuine metric.
    for k in labels:
        for a in labels:
            for b in labels:
                via = d[(a, k)] + d[(k, b)]
                if via < d[(a, b)]:
                    d[(a, b)] = via
    return d


# the arms of random_arm_tree and the points drawn on them; the glue points
# are few, so that glued points often coincide and chain across arms
ARM_POINTS = {
    "J": tuple(Fraction(k, 4) for k in range(5)),
    "E": tuple(ExtValue(Fraction(k, 2)) for k in range(-4, 5)) + (INF,),
}
GLUE_POINTS = (Fraction(0), Fraction(1, 2), Fraction(1))
_E = extended_line_space("E", -2, 2)


def random_arm_tree(rng: random.Random) -> ConvexSpaceSpec:
    """A branched space of 2 to 6 arms, each the interval J or the extended
    line E = [-2, 2] + inf, glued at GLUE_POINTS into a forest, with the
    gluings in random order and direction.  One gluing in eight has no
    ident, and one arm in eight starts a tree of its own.  It is built
    without semidirect_space's check that each losing arm has a transition
    into the winner: the properties read the walk, normalize and the metric,
    never a combination."""
    labels = "ABCDEF"[: rng.randint(2, 6)]
    arms = tuple((label, rng.choice((J, _E))) for label in labels)
    gluings = []
    for k in range(1, len(labels)):
        if rng.randrange(8) == 0:
            continue
        ends = [labels[k], labels[rng.randrange(k)]]
        rng.shuffle(ends)
        ident = None if rng.randrange(8) == 0 else rng.choice(GLUE_POINTS)
        gluings.append(Gluing(*ends, rng.choice(GLUE_POINTS), ident=ident))
    rng.shuffle(gluings)
    branches = labels_space("arm-labels", tuple(labels), "max")
    return ConvexSpaceSpec("arm-tree", SpaceKind.MIXED, Branched(branches, arms, tuple(gluings)))


def arm_payloads(space: ConvexSpaceSpec) -> list:
    """Every (label, point) of ARM_POINTS on every arm, not normalized."""
    return [(label, p) for label, arm in space.carrier.components for p in ARM_POINTS[arm.id]]
