"""Seeded generators that only the tests draw from: depth-three measure
towers, small random label spaces and random metrics on their labels; and
the reference oracles that more than one test file checks against, written
from their definitions.

Everything takes an explicit random.Random, as `girycheck.sampling` does.
"""

import random
import string
from fractions import Fraction

from girycheck.sampling import random_meta, random_weights
from girycheck.spaces import ConvexSpaceSpec, labels_space, payload_sort_key


def reference_random_weights(rng: random.Random, n: int):
    """n nonnegative Fractions over 24, summing to 1: the gaps between n - 1
    sorted uniform cuts of 0..24."""
    if n < 1:
        raise ValueError("need at least one weight")
    cuts = sorted(rng.randint(0, 24) for _ in range(n - 1))
    bounds = [0] + cuts + [24]
    return [Fraction(b - a, 24) for a, b in zip(bounds, bounds[1:])]


def reference_canonical_atoms(merged: dict) -> tuple:
    """A measure's (Element, weight) items in canonical order: sorted on
    payload_sort_key of the payload."""
    return tuple(sorted(merged.items(), key=lambda kv: payload_sort_key(kv[0].payload)))


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
