"""The n-holed sphere, convex curves, and positive twist products.

The surface is modeled as a disk with n-1 interior holes labeled 1..n-1 in
convex position; the disk boundary is component n.  A convex curve is
named by the interior labels it encloses, one name per isotopy class: the
curve parallel to the outer boundary is the curve around every interior
hole, 1..n-1.  Capping each interior hole with a punctured disk turns a
product of positive Dehn twists over convex curves into a braid on n-1
strands, one strand per interior label.

A twist over a convex curve becomes a "swing": gather the support strands
into an adjacent block, apply the block full twist, undo the gathering.
The linking pattern of Dehn twists forces only the block twist's sign; the
gathering side is the one the catalog of known relations pins (see
swing_word).
"""

from __future__ import annotations

import functools
from typing import Iterable, Sequence, Union

from .braid import BraidWord, _json_int, _Value, full_twist

__all__ = [
    "SurfaceSpec",
    "ConvexCurve",
    "TwistWord",
    "BoundaryWord",
    "MultiplicityVector",
    "Relation",
    "read_relation",
    "swing_word",
    "to_braid",
    "multiplicities",
]

def _json_list(value, what: str) -> list:
    """A JSON array from an input file; strings and objects raise."""
    if type(value) is not list:
        raise ValueError(f"{what} must be a list, got {value!r}")
    return value


def _json_object(value, what: str, allowed: tuple[str, ...], required: tuple[str, ...]) -> dict:
    """A JSON object from an input file with no key outside allowed and every
    key in required, so a misspelled key raises instead of reading as absent;
    arrays and scalars raise."""
    if type(value) is not dict:
        raise ValueError(f"{what} must be an object, got {type(value).__name__}")
    extra = sorted(set(value) - set(allowed))
    if extra:
        want = ", ".join(map(repr, allowed[:-1]))
        raise ValueError(f"unknown {what} key {extra[0]!r}, want {want} or {allowed[-1]!r}")
    for key in required:
        if key not in value:
            raise ValueError(f"{what} has no {key!r}")
    return value


def _json_str(value, what: str) -> str:
    """A JSON string from an input file; anything else raises."""
    if type(value) is not str:
        raise ValueError(f"{what} must be a string, got {value!r}")
    return value


class SurfaceSpec(_Value):
    """Sphere with n boundary components: interior labels 1..n-1, outer n."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        if _json_int(n, "n") < 2:
            raise ValueError(f"need at least 2 boundary components, got {n}")
        self._set(n)


class ConvexCurve(_Value):
    """A convex simple closed curve: the sorted interior labels it encloses.

    On the n-holed sphere the curve parallel to the outer boundary is the
    one around every interior hole, ConvexCurve(range(1, n)).
    Boundary-parallel cases: a single label or the full interior set.
    """

    __slots__ = ("support",)

    def __init__(self, support: Iterable[int]):
        support = tuple(sorted(_json_int(x, "label") for x in support))
        if not support:
            raise ValueError("curve needs a non-empty support")
        if len(set(support)) != len(support):
            raise ValueError(f"repeated labels in support {support}")
        if support[0] < 1:
            raise ValueError(f"labels must be positive, got {support}")
        self._set(support)

    def is_boundary_parallel(self, surface: SurfaceSpec) -> bool:
        return len(self.support) in (1, surface.n - 1)


class TwistWord(_Value):
    """Product of positive twists, factors in written order.

    The last factor acts first, matching how composition of mapping
    classes is written.
    """

    __slots__ = ("surface", "factors")

    def __init__(self, surface: SurfaceSpec, factors: Iterable[ConvexCurve] = ()):
        if not isinstance(surface, SurfaceSpec):
            raise ValueError(f"surface must be a SurfaceSpec, got {surface!r}")
        factors = tuple(factors)
        top = surface.n - 1
        for c in factors:
            if not isinstance(c, ConvexCurve):
                raise ValueError(f"factor must be a ConvexCurve, got {c!r}")
            if c.support[-1] > top:
                raise ValueError(
                    f"support {c.support} exceeds interior labels 1..{top}"
                )
        self._set(surface, factors)

    def __len__(self) -> int:
        return len(self.factors)


class BoundaryWord(_Value):
    """Canonical boundary-parallel product T_1^{a_1} ... T_{n-1}^{a_{n-1}} T_n^outer."""

    __slots__ = ("surface", "exponents", "outer")

    def __init__(self, surface: SurfaceSpec, exponents: Iterable[int], outer: int = 1):
        if not isinstance(surface, SurfaceSpec):
            raise ValueError(f"surface must be a SurfaceSpec, got {surface!r}")
        exponents = tuple(_json_int(a, "exponent") for a in exponents)
        if len(exponents) != surface.n - 1:
            raise ValueError(f"need {surface.n - 1} exponents, got {len(exponents)}")
        if any(a < 0 for a in exponents):
            raise ValueError("exponents must be non-negative")
        if _json_int(outer, "outer") < 0:
            raise ValueError(f"outer must be non-negative, got {outer}")
        self._set(surface, exponents, outer)

    def twist_count(self) -> int:
        return sum(self.exponents) + self.outer


def _check_same_surface(lhs: BoundaryWord | TwistWord, rhs: BoundaryWord | TwistWord) -> None:
    if lhs.surface != rhs.surface:
        raise ValueError("lhs and rhs must live on the same surface")


class Relation(_Value):
    """One catalogued or daisy equality: boundary product = twist product."""

    __slots__ = ("label", "lhs", "rhs")

    def __init__(self, label: str, lhs: BoundaryWord, rhs: TwistWord):
        _json_str(label, "label")
        if not isinstance(lhs, BoundaryWord):
            raise ValueError(f"lhs must be a BoundaryWord, got {lhs!r}")
        if not isinstance(rhs, TwistWord):
            raise ValueError(f"rhs must be a TwistWord, got {rhs!r}")
        _check_same_surface(lhs, rhs)
        _reject_boundary_parallel(rhs)
        self._set(label, lhs, rhs)


def _reject_boundary_parallel(rhs: TwistWord) -> None:
    """The rule of every relation and design: no rhs factor is boundary-parallel."""
    for c in rhs.factors:
        if c.is_boundary_parallel(rhs.surface):
            raise ValueError(f"rhs factor {c} is boundary-parallel")


def read_relation(
    obj: dict, default_label: str | None = None
) -> tuple[str, BoundaryWord, TwistWord | None]:
    """A relation file's JSON object -> (label, BoundaryWord, TwistWord or None).

    The one relation format, read alike from the bundled catalog and the CLI:

        {"label": "n5/1", "n": 5,
         "lhs": {"exponents": [2, 2, 2, 2], "outer": 1},
         "rhs": [[1, 2], [2, 3], [1, 3], [3, 4], [2, 4], [1, 4]],
         "order": "rightmost-first"}

    `n`, `lhs` and `lhs.exponents` are required, a missing one, a key not
    shown here or a non-object raising ValueError; `outer` defaults to 1,
    `label` to default_label; `rhs` may be absent.
    A factor is a list of labels or "outer", read as the curve around every
    interior hole, the same factor as [1, ..., n-1].  "rightmost-first"
    (default) is function notation, the last factor acts first;
    "leftmost-first" lists are reversed.  Relation's factor rules are not
    applied.
    """
    _json_object(obj, "relation", ("label", "n", "lhs", "rhs", "order"), ("n", "lhs"))
    surface = SurfaceSpec(obj["n"])
    lhs_obj = _json_object(obj["lhs"], "lhs", ("exponents", "outer"), ("exponents",))
    exponents = _json_list(lhs_obj["exponents"], "exponents")
    lhs = BoundaryWord(surface, tuple(exponents), lhs_obj.get("outer", 1))
    order = obj.get("order", "rightmost-first")
    if order not in ("rightmost-first", "leftmost-first"):
        raise ValueError(f"order must be rightmost-first or leftmost-first, got {order!r}")
    rhs = None
    if "rhs" in obj:
        outer = ConvexCurve(range(1, surface.n))
        factors = [
            outer if f == "outer" else ConvexCurve(_json_list(f, "factor"))
            for f in _json_list(obj["rhs"], "rhs")
        ]
        if order == "leftmost-first":
            factors.reverse()
        rhs = TwistWord(surface, tuple(factors))
    return _json_str(obj.get("label", default_label), "label"), lhs, rhs


class MultiplicityVector(_Value):
    """Containment counts: interior[i-1] factors contain label i.

    The outer field counts factors isotopic to the outer boundary; it is
    reported alongside but never compared by `catalog.verify_words`.
    """

    __slots__ = ("interior", "outer")

    def __init__(self, interior: tuple[int, ...], outer: int):
        self._set(interior, outer)


def swing_word(curve: ConvexCurve, surface: SurfaceSpec) -> BraidWord:
    """Braid of one positive twist over a convex curve, on n-1 strands."""
    m = surface.n - 1
    s = curve.support
    if s[-1] > m:
        raise ValueError(f"support {s} exceeds interior labels 1..{m}")
    k = len(s)
    if k == 1:
        return BraidWord(m)
    base = s[0]
    gather: list[int] = []
    for j in range(1, k):
        # walk the strand at slot s[j] left until it sits at slot base+j,
        # by negative crossings: the catalog of known relations pins this
        # side, and the other side gathers the mirror image
        for pos in range(s[j] - 1, base + j - 1, -1):
            gather.append(-pos)
    block = [-(base + off) for off in range(k - 1)] * k
    ungather = [-x for x in reversed(gather)]
    return BraidWord(m, tuple(gather + block + ungather))


@functools.cache
def _swing_letters(support: tuple[int, ...], n: int) -> tuple[int, ...]:
    """swing_word's letters for a support on the n-holed sphere, kept per
    key of plain ints: a curve key would hash in Python, in _Value.__hash__."""
    return swing_word(ConvexCurve(support), SurfaceSpec(n)).letters


def to_braid(word: Union[TwistWord, BoundaryWord]) -> BraidWord:
    """Composition of the factor swings, in application order.

    A one-hole twist swings no strand and the outer twist swings every
    strand as the full twist, so a BoundaryWord's braid is
    `full_twist(n - 1)`'s letters `outer` times, letter for letter the braid
    of the product written out one factor per twist.  Each support's swing
    is spelled once per process (_swing_letters).
    """
    if isinstance(word, BoundaryWord):
        m = word.surface.n - 1
        return BraidWord(m, full_twist(m).letters * word.outer)
    n = word.surface.n
    letters: list[int] = []
    for curve in reversed(word.factors):
        letters.extend(_swing_letters(curve.support, n))
    return BraidWord(n - 1, tuple(letters))


def multiplicities(word: Union[TwistWord, BoundaryWord]) -> MultiplicityVector:
    """How many factors contain each boundary component.

    A factor around every interior hole is parallel to the outer boundary,
    so it contains the outer component as well as every interior label.
    A BoundaryWord's counts are read off its exponents, as the product
    written out one factor per twist would count them: label i is in its a_i
    one-hole factors and its outer ones, and at n = 2 the one-hole curve is
    the outer-parallel one too.
    """
    n = word.surface.n
    if isinstance(word, BoundaryWord):
        outer = word.outer
        interior = tuple(a + outer for a in word.exponents)
        return MultiplicityVector(interior, interior[0] if n == 2 else outer)
    counts = [0] * (n - 1)
    outer = 0
    for c in word.factors:
        if len(c.support) == n - 1:
            outer += 1
        for label in c.support:
            counts[label - 1] += 1
    return MultiplicityVector(tuple(counts), outer)

