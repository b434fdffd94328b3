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
    cuts = sorted([rng.randrange(25) for _ in range(n - 1)])
    bounds = [0] + cuts + [24]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def _draw_atoms(rng: random.Random, space: ConvexSpaceSpec, max_atoms: int) -> tuple:
    """random_measure's draws: k <= max_atoms, k points of the space's own
    sampler, then the k - 1 cuts.  Returns the measure's atoms as
    (Element, numerator over 24): zero numerators dropped and equal points
    merged on the ints, so the numerators are positive and sum to 24."""
    k = rng.randrange(max_atoms) + 1
    sample = space.carrier.sample
    elems = [Element(space.id, sample(rng)) for _ in range(k)]
    if k == 1:
        return ((elems[0], 24),)
    return _merged_atoms([(e, n) for e, n in zip(elems, _cut_numerators(rng, k)) if n])


def _draw_meta_atoms(
    rng: random.Random, space: ConvexSpaceSpec, max_outer: int, max_atoms: int
) -> tuple:
    """random_meta's draws: k <= max_outer, k inner draws of _draw_atoms,
    then the k - 1 outer cuts.  Returns the inner atoms and the outer
    numerators over 24, as drawn: zero numerators kept and equal inner
    measures not merged."""
    k = rng.randrange(max_outer) + 1
    inner = [_draw_atoms(rng, space, max_atoms) for _ in range(k)]
    return inner, _cut_numerators(rng, k)


def _measure_on_24ths(space_id: str, atoms) -> FinMeasure:
    """The FinMeasure of _draw_atoms' (Element, numerator over 24) atoms."""
    return FinMeasure(space_id, tuple((e, _TWENTY_FOURTHS[n]) for e, n in atoms))


def random_measure(
    rng: random.Random, space: ConvexSpaceSpec, max_atoms: int = 4
) -> FinMeasure:
    """k <= max_atoms points of the space's own sampler with weights on the
    24ths grid, built directly from the drawn integer numerators."""
    return _measure_on_24ths(space.id, _draw_atoms(rng, space, max_atoms))


def random_meta(
    rng: random.Random,
    space: ConvexSpaceSpec,
    max_outer: int = 3,
    max_atoms: int = 3,
) -> MetaMeasure:
    inner, outer = _draw_meta_atoms(rng, space, max_outer, max_atoms)
    pairs = [(_measure_on_24ths(space.id, a), _TWENTY_FOURTHS[q]) for a, q in zip(inner, outer)]
    return MetaMeasure.from_pairs(space.id, pairs)
