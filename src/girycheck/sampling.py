"""Seeded random generators for measures, spaces, and metrics.

Everything takes an explicit random.Random so that test runs and CLI
sampling are reproducible; nothing here touches global RNG state.
"""

from __future__ import annotations

import random
import string
from fractions import Fraction

from .measures import FinMeasure, MetaMeasure
from .spaces import ConvexSpaceSpec, labels_space

# k/24 for k = 0..24: the steps of the weight grid
_TWENTY_FOURTHS = tuple(Fraction(k, 24) for k in range(25))


def random_weights(rng: random.Random, n: int):
    """n nonnegative Fractions with denominator dividing 24, summing to 1."""
    if n < 1:
        raise ValueError("need at least one weight")
    cuts = sorted(rng.randint(0, 24) for _ in range(n - 1))
    bounds = [0] + cuts + [24]
    return [_TWENTY_FOURTHS[b - a] for a, b in zip(bounds, bounds[1:])]


def random_measure(
    rng: random.Random, space: ConvexSpaceSpec, max_atoms: int = 4
) -> FinMeasure:
    k = rng.randint(1, max_atoms)
    elems = [space.sample_element(rng) for _ in range(k)]
    ws = random_weights(rng, k)
    return FinMeasure.from_pairs(space.id, zip(elems, ws))


def random_meta_pairs(
    rng: random.Random,
    space: ConvexSpaceSpec,
    max_outer: int = 3,
    max_atoms: int = 3,
) -> list:
    """The (FinMeasure, weight) pairs of a random meta-measure, as drawn:
    zero weights kept and equal inner measures not merged."""
    k = rng.randint(1, max_outer)
    inner = [random_measure(rng, space, max_atoms) for _ in range(k)]
    return list(zip(inner, random_weights(rng, k)))


def random_meta(
    rng: random.Random,
    space: ConvexSpaceSpec,
    max_outer: int = 3,
    max_atoms: int = 3,
) -> MetaMeasure:
    return MetaMeasure.from_pairs(space.id, random_meta_pairs(rng, space, max_outer, max_atoms))


def random_tower(rng: random.Random, space: ConvexSpaceSpec):
    """Weights plus meta-measures: one layer above MetaMeasure, used to
    exercise the two ways of flattening a depth-three tower."""
    k = rng.randint(1, 3)
    metas = [random_meta(rng, space) for _ in range(k)]
    ws = random_weights(rng, k)
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
