"""References the tests check the package against: the strands of a braid
word, read from its letters alone (purity and linking numbers), and a
boundary word written out one factor per twist."""

from planar_monoid.surface import ConvexCurve, TwistWord


def strand_linking(w):
    """(pure, doubled) for a braid word w: pure says every strand ends where
    it starts, and doubled[x, y] for strands x < y, 1-indexed by start
    position, is their signed crossing count, twice their linking number."""
    m = w.strands
    occupant = list(range(1, m + 1))  # occupant[i]: the strand at position i + 1
    doubled = {(x, y): 0 for x in range(1, m + 1) for y in range(x + 1, m + 1)}
    for k in w.letters:
        i = abs(k) - 1
        x, y = occupant[i], occupant[i + 1]
        doubled[min(x, y), max(x, y)] += 1 if k > 0 else -1
        occupant[i], occupant[i + 1] = y, x
    return occupant == sorted(occupant), doubled


def expand(w):
    """A BoundaryWord as a twist word, one factor per twist: a_i twists
    around hole i, then `outer` around every interior hole.  The reference
    for `to_braid` and `multiplicities`, which read a boundary word's braid
    and counts off its exponents instead."""
    factors = []
    for label, a in enumerate(w.exponents, start=1):
        factors.extend([ConvexCurve((label,))] * a)
    factors.extend([ConvexCurve(range(1, w.surface.n))] * w.outer)
    return TwistWord(w.surface, tuple(factors))
