"""Seeded random generators for measures and meta-measures.

Everything takes an explicit random.Random so that test runs and CLI
sampling are reproducible; nothing here touches global RNG state.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .measures import FinMeasure, MetaMeasure, _merged_atoms
from .spaces import ConvexSpaceSpec, Element

# k/24 for k = 0..24: the steps of the weight grid
_TWENTY_FOURTHS = tuple(Fraction(k, 24) for k in range(25))


def _cut_numerators(rng: random.Random, n: int) -> list:
    """n nonnegative ints summing to 24: the gaps between n - 1 sorted
    uniform cuts of 0..24."""
    cuts = sorted(rng.randint(0, 24) for _ in range(n - 1))
    bounds = [0] + cuts + [24]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def random_weights(rng: random.Random, n: int):
    """n nonnegative Fractions with denominator dividing 24, summing to 1."""
    if n < 1:
        raise ValueError("need at least one weight")
    return [_TWENTY_FOURTHS[k] for k in _cut_numerators(rng, n)]


def random_measure(
    rng: random.Random, space: ConvexSpaceSpec, max_atoms: int = 4
) -> FinMeasure:
    """k <= max_atoms points of the space's own sampler with weights on the
    24ths grid.  The points are this space's Elements and the numerators
    are nonnegative and sum to 24, so the measure is built directly: zero
    numerators dropped, equal points merged on the ints."""
    k = rng.randint(1, max_atoms)
    sample = space.carrier.sample
    elems = [Element(space.id, sample(rng)) for _ in range(k)]
    if k == 1:
        return FinMeasure(space.id, ((elems[0], _TWENTY_FOURTHS[24]),))
    pairs = [(e, n) for e, n in zip(elems, _cut_numerators(rng, k)) if n]
    return FinMeasure(space.id, tuple((e, _TWENTY_FOURTHS[n]) for e, n in _merged_atoms(pairs)))


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
